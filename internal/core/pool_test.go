package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"activerbac/internal/clock"
	"activerbac/internal/event"
)

var t0 = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func newTestPool() (*Pool, *event.Detector, *clock.Sim) {
	sim := clock.NewSim(t0)
	det := event.New(sim)
	return NewPool(det), det, sim
}

func trueCond() Condition  { return BoolCond("TRUE", func(*event.Occurrence) bool { return true }) }
func falseCond() Condition { return BoolCond("FALSE", func(*event.Occurrence) bool { return false }) }

func counterAct(desc string, n *int) Action {
	return Act(desc, func(*event.Occurrence) error { *n++; return nil })
}

func TestRuleThenBranch(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	thenN, elseN := 0, 0
	p.MustAdd(Rule{
		Name: "r1", On: "e",
		When: []Condition{trueCond()},
		Then: []Action{counterAct("then", &thenN)},
		Else: []Action{counterAct("else", &elseN)},
	})
	det.MustRaise("e", nil)
	if thenN != 1 || elseN != 0 {
		t.Fatalf("then=%d else=%d, want 1/0", thenN, elseN)
	}
}

func TestRuleElseBranch(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	thenN, elseN := 0, 0
	p.MustAdd(Rule{
		Name: "r1", On: "e",
		When: []Condition{trueCond(), falseCond()},
		Then: []Action{counterAct("then", &thenN)},
		Else: []Action{counterAct("else", &elseN)},
	})
	det.MustRaise("e", nil)
	if thenN != 0 || elseN != 1 {
		t.Fatalf("then=%d else=%d, want 0/1 (alternative actions on FALSE)", thenN, elseN)
	}
}

func TestEmptyWhenMeansTrue(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	n := 0
	p.MustAdd(Rule{Name: "r", On: "e", Then: []Action{counterAct("a", &n)}})
	det.MustRaise("e", nil)
	if n != 1 {
		t.Fatalf("then ran %d times, want 1", n)
	}
}

func TestConditionShortCircuit(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	evals := 0
	counting := Cond("count", func(*event.Occurrence) (bool, error) { evals++; return true, nil })
	p.MustAdd(Rule{
		Name: "r", On: "e",
		When: []Condition{counting, falseCond(), counting},
	})
	det.MustRaise("e", nil)
	if evals != 1 {
		t.Fatalf("conditions evaluated %d times, want 1 (short circuit after FALSE)", evals)
	}
}

func TestConditionErrorRoutesToElse(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	boom := errors.New("boom")
	elseN := 0
	var outs []Outcome
	p.OnOutcome(func(o Outcome) { outs = append(outs, o) })
	p.MustAdd(Rule{
		Name: "r", On: "e",
		When: []Condition{Cond("explodes", func(*event.Occurrence) (bool, error) { return true, boom })},
		Else: []Action{counterAct("else", &elseN)},
	})
	det.MustRaise("e", nil)
	if elseN != 1 {
		t.Fatalf("else ran %d times, want 1", elseN)
	}
	if len(outs) != 1 || outs[0].Allowed || !errors.Is(outs[0].CondErr, boom) || outs[0].FailedCond != "explodes" {
		t.Fatalf("outcome %+v", outs)
	}
}

func TestActionErrorAbortsBranch(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	ran := 0
	var outs []Outcome
	p.OnOutcome(func(o Outcome) { outs = append(outs, o) })
	p.MustAdd(Rule{
		Name: "r", On: "e",
		Then: []Action{
			Act("fails", func(*event.Occurrence) error { return errors.New("nope") }),
			counterAct("after", &ran),
		},
	})
	det.MustRaise("e", nil)
	if ran != 0 {
		t.Fatal("action after failing action still ran")
	}
	if outs[0].ActionErr == nil {
		t.Fatal("ActionErr not recorded")
	}
}

func TestPriorityOrdering(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	var order []string
	mk := func(name string, prio int) Rule {
		return Rule{Name: name, On: "e", Priority: prio,
			Then: []Action{Act("t", func(*event.Occurrence) error { order = append(order, name); return nil })}}
	}
	p.MustAdd(mk("low", 1))
	p.MustAdd(mk("high", 10))
	p.MustAdd(mk("mid", 5))
	p.MustAdd(mk("mid2", 5)) // same priority: insertion order
	det.MustRaise("e", nil)
	want := []string{"high", "mid", "mid2", "low"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("firing order %v, want %v", order, want)
	}
}

func TestAddValidation(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	if err := p.Add(Rule{Name: "", On: "e"}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := p.Add(Rule{Name: "r", On: ""}); err == nil {
		t.Fatal("empty event accepted")
	}
	if err := p.Add(Rule{Name: "r", On: "undefined"}); err == nil {
		t.Fatal("undefined event accepted")
	}
	p.MustAdd(Rule{Name: "r", On: "e"})
	if err := p.Add(Rule{Name: "r", On: "e"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestRemove(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	n := 0
	p.MustAdd(Rule{Name: "r", On: "e", Then: []Action{counterAct("a", &n)}})
	if err := p.Remove("r"); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("r"); err == nil {
		t.Fatal("double remove accepted")
	}
	det.MustRaise("e", nil)
	if n != 0 {
		t.Fatal("removed rule fired")
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d, want 0", p.Len())
	}
}

func TestRemoveByTag(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	for i := 0; i < 5; i++ {
		tag := "role:PC"
		if i >= 3 {
			tag = "role:AC"
		}
		p.MustAdd(Rule{Name: fmt.Sprintf("r%d", i), On: "e", Tags: []string{tag}})
	}
	if n := p.RemoveByTag("role:PC"); n != 3 {
		t.Fatalf("removed %d, want 3", n)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	if n := p.RemoveByTag("role:none"); n != 0 {
		t.Fatalf("removed %d for unknown tag, want 0", n)
	}
}

func TestEnableDisable(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	n := 0
	p.MustAdd(Rule{Name: "r", On: "e", Tags: []string{"t"}, Then: []Action{counterAct("a", &n)}})
	if got := p.SetEnabledByTag("t", false); got != 1 {
		t.Fatalf("disabled %d, want 1", got)
	}
	det.MustRaise("e", nil)
	if n != 0 {
		t.Fatal("disabled rule fired")
	}
	if got := p.SetEnabledByTag("t", true); got != 1 {
		t.Fatalf("enabled %d, want 1", got)
	}
	det.MustRaise("e", nil)
	if n != 1 {
		t.Fatal("re-enabled rule did not fire")
	}
	if got := p.SetEnabledByTag("zzz", true); got != 0 {
		t.Fatalf("unknown tag matched %d rules", got)
	}
}

func TestSetEnabledByTag(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	n := 0
	p.MustAdd(Rule{Name: "a", On: "e", Tags: []string{"critical"}, Then: []Action{counterAct("x", &n)}})
	p.MustAdd(Rule{Name: "b", On: "e", Tags: []string{"critical"}, Then: []Action{counterAct("x", &n)}})
	p.MustAdd(Rule{Name: "c", On: "e", Then: []Action{counterAct("x", &n)}})
	if got := p.SetEnabledByTag("critical", false); got != 2 {
		t.Fatalf("affected %d, want 2", got)
	}
	det.MustRaise("e", nil)
	if n != 1 {
		t.Fatalf("fired %d, want 1 (only untagged rule)", n)
	}
}

func TestDisabledAtInsertion(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	n := 0
	p.MustAdd(Rule{Name: "r", On: "e", Disabled: true, Then: []Action{counterAct("a", &n)}})
	det.MustRaise("e", nil)
	if n != 0 {
		t.Fatal("rule inserted disabled fired")
	}
	info, _ := p.Get("r")
	if info.Enabled {
		t.Fatal("info.Enabled = true")
	}
}

func TestOutcomeCounters(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	allow := true
	p.MustAdd(Rule{Name: "r", On: "e",
		When: []Condition{BoolCond("flag", func(*event.Occurrence) bool { return allow })}})
	det.MustRaise("e", nil)
	det.MustRaise("e", nil)
	allow = false
	det.MustRaise("e", nil)
	info, ok := p.Get("r")
	if !ok {
		t.Fatal("rule missing")
	}
	if info.Fired != 3 || info.Allowed != 2 || info.Denied != 1 {
		t.Fatalf("counters fired=%d allowed=%d denied=%d", info.Fired, info.Allowed, info.Denied)
	}
}

func TestCascadedRuleViaAction(t *testing.T) {
	// Paper Rule 8 shape: rule on e1 raises e2, which triggers another
	// rule.
	p, det, _ := newTestPool()
	det.MustPrimitive("enableSysAdmin")
	det.MustPrimitive("enableSysAudit")
	var trace []string
	p.MustAdd(Rule{
		Name: "CFD1", On: "enableSysAdmin",
		Then: []Action{Act("enable audit too", func(o *event.Occurrence) error {
			trace = append(trace, "sysadmin-enabled")
			return det.Raise("enableSysAudit", o.Params)
		})},
	})
	p.MustAdd(Rule{
		Name: "CFD2", On: "enableSysAudit",
		Then: []Action{Act("enable", func(*event.Occurrence) error {
			trace = append(trace, "sysaudit-enabled")
			return nil
		})},
	})
	det.MustRaise("enableSysAdmin", event.Params{"user": "root"})
	if len(trace) != 2 || trace[0] != "sysadmin-enabled" || trace[1] != "sysaudit-enabled" {
		t.Fatalf("trace %v", trace)
	}
}

func TestRuleOnCompositeEvent(t *testing.T) {
	p, det, sim := newTestPool()
	det.MustPrimitive("open")
	det.MustDefine("timeout", event.Plus(event.NameExpr("open"), 2*time.Hour))
	closed := 0
	p.MustAdd(Rule{
		Name: "C1", On: "timeout",
		Then: []Action{counterAct("closeFile", &closed)},
	})
	det.MustRaise("open", event.Params{"file": "patient.dat"})
	sim.Advance(3 * time.Hour)
	if closed != 1 {
		t.Fatalf("closeFile ran %d times, want 1", closed)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	p.MustAdd(Rule{Name: "zz", On: "e", Class: ActiveSecurity, Granularity: Globalized,
		When: []Condition{trueCond()}, Then: []Action{Act("t", nil)}, Else: []Action{Act("e", nil)},
		Tags: []string{"x"}})
	p.MustAdd(Rule{Name: "aa", On: "e", Class: Administrative, Granularity: Specialized})
	snap := p.Snapshot()
	if len(snap) != 2 || snap[0].Name != "aa" || snap[1].Name != "zz" {
		t.Fatalf("snapshot %v", snap)
	}
	zz := snap[1]
	if zz.Class != ActiveSecurity || zz.Granularity != Globalized ||
		len(zz.Conditions) != 1 || len(zz.Then) != 1 || len(zz.Else) != 1 || len(zz.Tags) != 1 {
		t.Fatalf("snapshot detail %+v", zz)
	}
}

func TestClassGranularityStrings(t *testing.T) {
	if Administrative.String() != "administrative" ||
		ActivityControl.String() != "activity-control" ||
		ActiveSecurity.String() != "active-security" {
		t.Fatal("Class strings wrong")
	}
	if Specialized.String() != "specialized" || Localized.String() != "localized" ||
		Globalized.String() != "globalized" {
		t.Fatal("Granularity strings wrong")
	}
	if Class(99).String() == "" || Granularity(99).String() == "" {
		t.Fatal("unknown enum Strings empty")
	}
}

func TestOutcomeString(t *testing.T) {
	o := Outcome{Rule: "r", Event: &event.Occurrence{Event: "e", Start: t0, End: t0}, Allowed: true}
	if s := o.String(); s == "" || s[:5] != "ALLOW" {
		t.Fatalf("String = %q", s)
	}
	o.Allowed = false
	o.FailedCond = "cond"
	if s := o.String(); s[:4] != "DENY" {
		t.Fatalf("String = %q", s)
	}
}

func TestMultipleRulesSameEvent(t *testing.T) {
	p, det, _ := newTestPool()
	det.MustPrimitive("e")
	n := 0
	for i := 0; i < 10; i++ {
		p.MustAdd(Rule{Name: fmt.Sprintf("r%d", i), On: "e", Then: []Action{counterAct("a", &n)}})
	}
	det.MustRaise("e", nil)
	if n != 10 {
		t.Fatalf("fired %d, want 10", n)
	}
}

// evalSum is the summed evaluation time of every rule in p.
func evalSum(p *Pool) time.Duration {
	var sum time.Duration
	for _, r := range p.Snapshot() {
		sum += time.Duration(r.EvalNanos)
	}
	return sum
}

// TestFiringStampsTileTheItem: the rule firings of one drain item share
// their clock reads, so their evaluation times add up to the item's
// firing span exactly — the dispatch between two firings (here a batch
// carrier's fill) counts in the later firing — while the time between
// two items counts in no rule.
func TestFiringStampsTileTheItem(t *testing.T) {
	p, det, sim := newTestPool()
	det.MustPrimitive("e")
	costs := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	var condSum time.Duration
	for i, c := range costs {
		condSum += c
		p.MustAdd(Rule{Name: fmt.Sprintf("r%d", i), On: "e", Priority: -i,
			When: []Condition{BoolCond("costly", func(*event.Occurrence) bool { sim.Advance(c); return true })}})
	}
	var starts []time.Time
	p.OnOutcome(func(o Outcome) { starts = append(starts, o.At) })

	// One drain item: a carrier group of n occurrences, each firing
	// every rule, with fill advancing the clock before each delivery.
	const n, fill = 4, 10 * time.Millisecond
	b, err := det.NewBatch("e")
	if err != nil {
		t.Fatal(err)
	}
	b.RaiseGroupFn(n, func(int, event.Params) { sim.Advance(fill) })
	b.Wait()
	if len(starts) != n*len(costs) {
		t.Fatalf("%d firings, want %d", len(starts), n*len(costs))
	}
	span := sim.Now().Sub(starts[0]) // nothing ran after the last firing
	if want := n*condSum + (n-1)*fill; span != want {
		t.Fatalf("firing span %v, want %v", span, want)
	}
	if got := evalSum(p); got != span {
		t.Fatalf("rule evaluation times sum to %v, want the item's firing span %v", got, span)
	}
	for i := 1; i < len(starts); i++ {
		if !starts[i].After(starts[i-1]) {
			t.Fatalf("firing %d starts at %v, not after firing %d at %v", i, starts[i], i-1, starts[i-1])
		}
	}

	// Between items: an hour passes on no drain item, then one more
	// item fires each rule once.
	before := evalSum(p)
	sim.Advance(time.Hour)
	if err := det.RaiseSync("e", nil); err != nil {
		t.Fatal(err)
	}
	if got := evalSum(p) - before; got != condSum {
		t.Fatalf("second item added %v of evaluation time, want %v: the gap between items counted", got, condSum)
	}
	if first, want := starts[n*len(costs)], starts[0].Add(span+time.Hour); !first.Equal(want) {
		t.Fatalf("second item's first firing starts at %v, want a fresh reading %v", first, want)
	}
}

// TestFiringStampsConcurrentRaisers: raisers on many goroutines share
// one detector, each draining the others' items in turn; the firing
// boundary stamp is touched only by whichever goroutine holds the drain
// (-race), and every firing is counted.
func TestFiringStampsConcurrentRaisers(t *testing.T) {
	det := event.New(clock.NewReal())
	p := NewPool(det)
	det.MustPrimitive("e")
	for i := 0; i < 3; i++ {
		p.MustAdd(Rule{Name: fmt.Sprintf("r%d", i), On: "e", When: []Condition{trueCond()}})
	}
	const raisers, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < raisers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if g%2 == 0 {
					if err := det.RaiseSync("e", nil); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				b, err := det.NewBatch("e")
				if err != nil {
					t.Error(err)
					return
				}
				b.RaiseGroupFn(1, func(int, event.Params) {})
				b.Wait()
			}
		}(g)
	}
	wg.Wait()
	for _, r := range p.Snapshot() {
		if r.Fired != raisers*each {
			t.Fatalf("rule %s fired %d times, want %d", r.Name, r.Fired, raisers*each)
		}
	}
}
