package policy

import (
	"reflect"
	"testing"
)

const kitchenSink = `
policy "kitchen-sink"
role A
role B
role C
hierarchy A > B
ssd s1 2: B, C
dsd d1 2: B, C
permission A: read doc.txt
user jane: A
user joe
cardinality A 2
maxroles jane 5
shift A 09:00:00-17:00:00
duration jane A 2h0m0s
duration * B 30m0s
timesod ward 10:00:00-17:00:00: A, B
couple A -> B
require C needs-active A
prereq C after B
purpose treatment
purpose diagnosis < treatment
bind A read chart.dat for diagnosis
consent-required chart.dat
threshold intrusions 5 in 10m0s: lock-user
context A requires location = ward
`

func TestFormatRoundTrip(t *testing.T) {
	orig, err := ParseString(kitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(orig)
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse of Format output failed: %v\noutput:\n%s", err, text)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip changed the spec:\norig: %#v\nback: %#v\ntext:\n%s", orig, back, text)
	}
}

func TestFormatIdempotent(t *testing.T) {
	orig, err := ParseString(kitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	once := Format(orig)
	spec2, err := ParseString(once)
	if err != nil {
		t.Fatal(err)
	}
	twice := Format(spec2)
	if once != twice {
		t.Fatalf("Format not idempotent:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
	}
}

func TestFormatXYZStable(t *testing.T) {
	spec, err := ParseFile("testdata/xyz.acp")
	if err != nil {
		t.Fatal(err)
	}
	text := Format(spec)
	back, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatal("XYZ round trip changed the spec")
	}
	if issues := Check(back); len(issues) != 0 {
		t.Fatalf("formatted XYZ inconsistent: %v", issues)
	}
}

func TestFormatEmptySpec(t *testing.T) {
	s := &Spec{}
	if got := Format(s); got != "" {
		t.Fatalf("Format(empty) = %q", got)
	}
}

// TestFormatPolicyNameRoundTrip: Format writes the policy name the way
// the parser reads it — between plain quotes, with no escapes — so a
// name holding a backslash or a control character survives the round
// trip unchanged.
func TestFormatPolicyNameRoundTrip(t *testing.T) {
	for _, name := range []string{`a\b`, "\x7f", "tab\there", `say "hi" twice`} {
		back, err := ParseString(Format(&Spec{Name: name}))
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if back.Name != name {
			t.Errorf("policy name %q came back as %q", name, back.Name)
		}
	}
}
