package activerbac

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"activerbac/internal/policy"
)

// Fixture policies mirror the reach package's golden set; here they run
// through the full pipeline including differential replay.
const (
	dsdBypassPolicy = `
policy "dsd-bypass"
role Teller
role Auditor
dsd bank 2: Teller, Auditor
permission Teller: write ledger.dat
permission Auditor: audit ledger.dat
user bob: Teller, Auditor
`
	cardBypassPolicy = `
policy "card-bypass"
role Director
role PM
hierarchy Director > PM
cardinality PM 1
permission PM: approve po.dat
user ann: Director
user ben: PM
`
	windowEscapePolicy = `
policy "window-escape"
role DayDoctor
shift DayDoctor 09:00:00-17:00:00
permission DayDoctor: read chart.dat
user dora: DayDoctor
`
	cleanVerifyPolicy = `
policy "clean"
role Manager
role Clerk
hierarchy Manager > Clerk
permission Manager: approve po.dat
permission Clerk: write po.dat
user meg: Manager
user carl: Clerk
`
)

func verifyFixture(t *testing.T, src, wantCode string) VerifyFinding {
	t.Helper()
	res, err := VerifyPolicy(src, VerifyConfig{})
	if err != nil {
		t.Fatalf("VerifyPolicy: %v", err)
	}
	var found *VerifyFinding
	for i, f := range res.Findings {
		if f.Code == "RV199" {
			t.Fatalf("self-check failure: %s", f.String())
		}
		if f.Code == wantCode && found == nil {
			found = &res.Findings[i]
		}
	}
	if found == nil {
		t.Fatalf("no %s finding in %v", wantCode, res.Findings)
	}
	if found.Counterexample == nil {
		t.Fatalf("%s finding without counterexample", wantCode)
	}
	return *found
}

// Every emitted counterexample must already have reproduced its
// violation against a real engine — the absence of RV199 here IS the
// differential test. Run under -race via the normal test suite.
func TestVerifyReplaysDSoDBypass(t *testing.T)        { verifyFixture(t, dsdBypassPolicy, "RV101") }
func TestVerifyReplaysCardinalityBypass(t *testing.T) { verifyFixture(t, cardBypassPolicy, "RV102") }
func TestVerifyReplaysWindowEscape(t *testing.T)      { verifyFixture(t, windowEscapePolicy, "RV103") }

func TestVerifyCleanPolicy(t *testing.T) {
	res, err := VerifyPolicy(cleanVerifyPolicy, VerifyConfig{})
	if err != nil {
		t.Fatalf("VerifyPolicy: %v", err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("clean policy has findings: %v", res.Findings)
	}
	if res.States == 0 {
		t.Fatal("no states explored")
	}
}

func TestVerifyDeterministic(t *testing.T) {
	for _, src := range []string{dsdBypassPolicy, cardBypassPolicy, windowEscapePolicy} {
		a, err := VerifyPolicy(src, VerifyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := VerifyPolicy(src, VerifyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("nondeterministic verification:\n%+v\nvs\n%+v", a, b)
		}
	}
}

// RV000: checker-rejected policies come back as findings, not errors.
func TestVerifyCheckerErrors(t *testing.T) {
	res, err := VerifyPolicy("policy \"bad\"\nrole A\nhierarchy A > B\n", VerifyConfig{})
	if err != nil {
		t.Fatalf("VerifyPolicy: %v", err)
	}
	if len(res.Findings) == 0 || res.Findings[0].Code != "RV000" {
		t.Fatalf("want RV000, got %v", res.Findings)
	}
}

// A corrupted counterexample must fail replay — the self-check that
// backs RV199.
func TestReplayRejectsCorruptedCounterexample(t *testing.T) {
	f := verifyFixture(t, dsdBypassPolicy, "RV101")
	spec, err := policy.ParseString(dsdBypassPolicy)
	if err != nil {
		t.Fatal(err)
	}
	anchor := time.Date(2024, time.January, 1, 0, 0, 0, 0, time.UTC)

	// Sanity: the untouched counterexample replays.
	if err := replayCounterexample(spec, dsdBypassPolicy, f.Counterexample, anchor); err != nil {
		t.Fatalf("genuine counterexample failed replay: %v", err)
	}

	// Dropping the final activation leaves the violation unreached.
	truncated := *f.Counterexample
	truncated.Steps = truncated.Steps[:len(truncated.Steps)-1]
	if err := replayCounterexample(spec, dsdBypassPolicy, &truncated, anchor); err == nil {
		t.Fatal("truncated counterexample replayed without error")
	}

	// An impossible step (activating both conflicting roles in one
	// session) must be refused by the engine.
	bogus := *f.Counterexample
	bogus.Steps = append([]VerifyStep{}, bogus.Steps...)
	last := bogus.Steps[len(bogus.Steps)-1]
	first := bogus.Steps[len(bogus.Steps)-2]
	last.Session = first.Session // same session now
	bogus.Steps[len(bogus.Steps)-1] = last
	if err := replayCounterexample(spec, dsdBypassPolicy, &bogus, anchor); err == nil {
		t.Fatal("engine accepted a same-session DSoD violation during replay")
	} else if !strings.Contains(err.Error(), "activate") {
		t.Fatalf("unexpected replay error: %v", err)
	}
}

// System.Verify counts findings and run stats into the metrics
// registry.
func TestSystemVerifyMetrics(t *testing.T) {
	sys, err := Open(dsdBypassPolicy, &Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.Verify(VerifyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !HasVerifyErrors(res.Findings) {
		t.Fatalf("expected error findings, got %v", res.Findings)
	}
	var out strings.Builder
	if err := sys.WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"activerbac_verify_states_total",
		`activerbac_verify_findings_total{code="RV101"}`,
		"activerbac_verify_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %s", want)
		}
	}
}
