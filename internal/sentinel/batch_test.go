package sentinel

import (
	"fmt"
	"sync"
	"testing"

	"activerbac/internal/clock"
	"activerbac/internal/core"
	"activerbac/internal/event"
)

// allowBobRule wires the standard test rule: allow when user=="bob",
// deny anyone else with a fixed reason.
func allowBobRule(e *Engine, on string) {
	e.Detector().MustPrimitive(on)
	e.Pool().MustAdd(core.Rule{
		Name: "R", On: on,
		When: []core.Condition{core.BoolCond("user==bob", func(o *event.Occurrence) bool {
			return o.Params["user"] == "bob"
		})},
		Then: []core.Action{core.Act("allow", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Allow("R")
			}
			return nil
		})},
		Else: []core.Action{core.Act("deny", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Deny("R", "not bob")
			}
			return nil
		})},
	})
}

// TestDecideCheckBatchMatchesSequential: a mixed batch — several
// scopes, duplicates, a global-scope tuple — must yield exactly the
// verdicts the per-tuple path yields, in input order.
func TestDecideCheckBatchMatchesSequential(t *testing.T) {
	e, _ := newEngine()
	allowBobRule(e, "req")

	tuples := []CheckTuple{
		{User: "bob", Session: "s1", Operation: "read", Object: "a"},
		{User: "eve", Session: "s2", Operation: "read", Object: "a"},
		{User: "bob", Session: "s1", Operation: "read", Object: "a"}, // duplicate of [0]
		{User: "bob", Session: "", Operation: "write", Object: "b"},  // user-scoped
		{User: "", Session: "", Operation: "write", Object: "b"},     // global scope
		{User: "eve", Session: "s2", Operation: "read", Object: "a"}, // duplicate of [1]
	}
	want := make([]Verdict, 0, len(tuples))
	for _, tp := range tuples {
		dec, err := e.DecideCheck("req", tp.User, tp.Session, tp.Operation, tp.Object)
		if err != nil {
			t.Fatal(err)
		}
		allowed, reason := dec.Verdict()
		want = append(want, Verdict{Allowed: allowed, Reason: reason})
	}

	got, err := e.DecideCheckBatch("req", tuples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d verdicts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("verdict[%d] = %+v, want %+v (tuple %+v)", i, got[i], want[i], tuples[i])
		}
	}
}

// TestDecideCheckBatchEdgeCases: an empty batch answers empty without
// touching the engine; an undefined event fails the whole batch.
func TestDecideCheckBatchEdgeCases(t *testing.T) {
	e, _ := newEngine()
	allowBobRule(e, "req")

	got, err := e.DecideCheckBatch("req", nil, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: verdicts=%v err=%v", got, err)
	}
	if _, err := e.DecideCheckBatch("req.unknown", []CheckTuple{{User: "bob"}}, nil); err == nil {
		t.Fatal("undefined event accepted")
	}
	// Verdict-slice reuse: capacity is kept, contents replaced.
	buf := make([]Verdict, 0, 8)
	got, err = e.DecideCheckBatch("req", []CheckTuple{{User: "bob", Session: "s1"}}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Allowed || cap(got) != cap(buf) {
		t.Fatalf("reused-slice batch: %+v (cap %d, want %d)", got, cap(got), cap(buf))
	}
}

// TestDecideCheckBatchCascadedVeto: a cascaded rule firing on a
// follow-up event must veto the right tuple of the batch — the
// cross-lane settled-cascade guarantee, batch-wide.
func TestDecideCheckBatchCascadedVeto(t *testing.T) {
	e, _ := newEngine()
	det := e.Detector()
	det.MustPrimitive("req")
	det.MustPrimitive("roleAdded")
	e.Pool().MustAdd(core.Rule{
		Name: "AAR", On: "req",
		Then: []core.Action{core.Act("allow+cascade", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Allow("AAR")
			}
			if o.Params["operation"] == "activate" {
				return det.RaiseFrom(o, "roleAdded", o.Params)
			}
			return nil
		})},
	})
	e.Pool().MustAdd(core.Rule{
		Name: "CC1", On: "roleAdded",
		When: []core.Condition{core.BoolCond("cardinality", func(*event.Occurrence) bool { return false })},
		Else: []core.Action{core.Act("veto", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Deny("CC1", "maximum number of roles reached")
			}
			return nil
		})},
	})

	got, err := e.DecideCheckBatch("req", []CheckTuple{
		{User: "u1", Session: "s1", Operation: "read", Object: "x"},
		{User: "u2", Session: "s2", Operation: "activate", Object: "x"},
		{User: "u3", Session: "s3", Operation: "read", Object: "x"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAllowed := []bool{true, false, true}
	for i, w := range wantAllowed {
		if got[i].Allowed != w {
			t.Errorf("verdict[%d].Allowed = %v, want %v (%+v)", i, got[i].Allowed, w, got[i])
		}
	}
	if got[1].Reason != "maximum number of roles reached" {
		t.Errorf("cascaded veto reason = %q", got[1].Reason)
	}
}

// TestDecideCheckBatchGroupOrder pins the documented execution order:
// misses are grouped by scope in first-appearance order and each group
// delivers in input order, so on a single lane the interleaved batch
// s1,s2,s1,s2 executes as s1,s1,s2,s2.
func TestDecideCheckBatchGroupOrder(t *testing.T) {
	e, _ := newEngine()
	var mu sync.Mutex
	var order []string
	e.Detector().MustPrimitive("req")
	e.Pool().MustAdd(core.Rule{
		Name: "rec", On: "req",
		Then: []core.Action{core.Act("record", func(o *event.Occurrence) error {
			mu.Lock()
			order = append(order, o.Params["session"].(string)+"/"+o.Params["object"].(string))
			mu.Unlock()
			if dec, ok := DecisionOf(o); ok {
				dec.Allow("rec")
			}
			return nil
		})},
	})

	_, err := e.DecideCheckBatch("req", []CheckTuple{
		{User: "u", Session: "s1", Operation: "op", Object: "o1"},
		{User: "u", Session: "s2", Operation: "op", Object: "o2"},
		{User: "u", Session: "s1", Operation: "op", Object: "o3"},
		{User: "u", Session: "s2", Operation: "op", Object: "o4"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"s1/o1", "s1/o3", "s2/o2", "s2/o4"}
	if len(order) != len(want) {
		t.Fatalf("delivered %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
}

// TestDecideCheckBatchConcurrent hammers batches from several
// goroutines (overlapping scopes, pooled state reuse) — the -race proof
// for the batch scratch pooling.
func TestDecideCheckBatchConcurrent(t *testing.T) {
	e, _ := newEngine()
	allowBobRule(e, "req")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			users := [2]string{"bob", "eve"}
			for i := 0; i < 40; i++ {
				tuples := []CheckTuple{
					{User: users[i%2], Session: "shared", Operation: "op", Object: "o"},
					{User: "bob", Session: "shared", Operation: "op", Object: "o"},
					{User: users[(i+1)%2], Session: "", Operation: "op", Object: "o"},
				}
				got, err := e.DecideCheckBatch("req", tuples, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for j, tp := range tuples {
					if want := tp.User == "bob"; got[j].Allowed != want {
						t.Errorf("g%d i%d verdict[%d] = %v, want %v", g, i, j, got[j].Allowed, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// cacheSafeBobRule wires the allow-bob rule in the verdict-cache-safe
// shape (session-scoped, CacheSafe, sole pool subscription, no outcome
// listeners) so the batch path takes its carrier mode: one reused
// occurrence and params map per scope group, slab-backed decisions.
func cacheSafeBobRule(e *Engine, on string) {
	e.Detector().MustPrimitive(on)
	e.Pool().MustAdd(core.Rule{
		Name: "R", On: on,
		Scope: core.ScopeSession, CacheSafe: true,
		When: []core.Condition{core.BoolCond("user==bob", func(o *event.Occurrence) bool {
			return o.Params["user"] == "bob"
		})},
		Then: []core.Action{core.Act("allow", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Allow("R")
			}
			return nil
		})},
		Else: []core.Action{core.Act("deny", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Deny("R", "not bob")
			}
			return nil
		})},
	})
}

// TestDecideCheckBatchCarrierMode: under the cache-safe shape with no
// fast path the batch runs in carrier mode. Verdicts must still match
// the per-tuple path exactly, across rounds (the decision slab and
// carrier maps are reused between batches).
func TestDecideCheckBatchCarrierMode(t *testing.T) {
	e, _ := newEngine()
	cacheSafeBobRule(e, "req")
	if !e.cacheable("req") {
		t.Fatal("test rule is not in the cache-safe shape; carrier mode untested")
	}

	tuples := []CheckTuple{
		{User: "bob", Session: "s1", Operation: "read", Object: "a"},
		{User: "eve", Session: "s2", Operation: "read", Object: "a"},
		{User: "bob", Session: "s1", Operation: "read", Object: "a"}, // duplicate
		{User: "bob", Session: "", Operation: "write", Object: "b"},  // user-scoped
		{User: "eve", Session: "s2", Operation: "read", Object: "a"},
	}
	want := make([]Verdict, 0, len(tuples))
	for _, tp := range tuples {
		dec, err := e.DecideCheck("req", tp.User, tp.Session, tp.Operation, tp.Object)
		if err != nil {
			t.Fatal(err)
		}
		allowed, reason := dec.Verdict()
		want = append(want, Verdict{Allowed: allowed, Reason: reason})
	}
	var got []Verdict
	var err error
	for round := 0; round < 3; round++ {
		got, err = e.DecideCheckBatch("req", tuples, got)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: got %d verdicts, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("round %d: verdict[%d] = %+v, want %+v (tuple %+v)", round, i, got[i], want[i], tuples[i])
			}
		}
	}
}

// TestDecideCheckBatchCarrierConcurrent hammers carrier-mode batches
// from several goroutines — the -race proof for the slab-backed
// decisions and per-group carrier reuse.
func TestDecideCheckBatchCarrierConcurrent(t *testing.T) {
	e, _ := newEngine()
	cacheSafeBobRule(e, "req")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			users := [2]string{"bob", "eve"}
			var buf []Verdict
			for i := 0; i < 40; i++ {
				tuples := []CheckTuple{
					{User: users[i%2], Session: "shared", Operation: "op", Object: "o"},
					{User: "bob", Session: "shared", Operation: "op", Object: "o"},
					{User: users[(i+1)%2], Session: "solo", Operation: "op", Object: "o"},
				}
				got, err := e.DecideCheckBatch("req", tuples, buf)
				if err != nil {
					t.Error(err)
					return
				}
				buf = got
				for j, tp := range tuples {
					if want := tp.User == "bob"; got[j].Allowed != want {
						t.Errorf("g%d i%d verdict[%d] = %v, want %v", g, i, j, got[j].Allowed, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDecideCheckBatchManySessionsManyLanes: 256-tuple carrier-mode
// batches spanning 64 sessions on a four-lane engine — each session is
// a scope group, groups on different lanes fill their carriers at once
// (-race: the fills share the batch's pooled scratch). Verdicts must
// equal sequential DecideCheck, with and without the verdict cache, from
// several submitters at a time.
func TestDecideCheckBatchManySessionsManyLanes(t *testing.T) {
	for _, fastpath := range []bool{false, true} {
		t.Run(fmt.Sprintf("fastpath=%v", fastpath), func(t *testing.T) {
			opts := []EngineOption{WithLanes(4)}
			if fastpath {
				opts = append(opts, WithFastPath())
			}
			e := NewEngine(clock.NewSim(t0), opts...)
			cacheSafeBobRule(e, "req")
			if !e.cacheable("req") {
				t.Fatal("test rule is not in the cache-safe shape; carrier mode untested")
			}
			users := [3]string{"bob", "eve", "bob"}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tuples := make([]CheckTuple, 256)
					var got []Verdict
					for round := 0; round < 20; round++ {
						for i := range tuples {
							tuples[i] = CheckTuple{
								User:      users[(i+round)%3],
								Session:   fmt.Sprintf("s%d", (i+g)%64),
								Operation: "read",
								Object:    fmt.Sprintf("o%d", (i*7+round)%40),
							}
						}
						var err error
						if got, err = e.DecideCheckBatch("req", tuples, got); err != nil {
							t.Error(err)
							return
						}
						for i, tp := range tuples {
							dec, err := e.DecideCheck("req", tp.User, tp.Session, tp.Operation, tp.Object)
							if err != nil {
								t.Error(err)
								return
							}
							allowed, reason := dec.Verdict()
							if want := (Verdict{Allowed: allowed, Reason: reason}); got[i] != want {
								t.Errorf("g%d round %d: verdict[%d] = %+v, sequential %+v (tuple %+v)", g, round, i, got[i], want, tp)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
