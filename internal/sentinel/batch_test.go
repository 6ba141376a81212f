package sentinel

import (
	"fmt"
	"sync"
	"testing"

	"activerbac/internal/clock"
	"activerbac/internal/core"
	"activerbac/internal/event"
	"activerbac/internal/rbac"
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
// verdicts sequential DecideCheck calls yield, in input order.
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
// settled-cascade guarantee, batch-wide.
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
// the misses form one group that delivers in input order, so the
// interleaved batch s1,s2,s1,s2 executes exactly as submitted.
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
	want := []string{"s1/o1", "s2/o2", "s1/o3", "s2/o4"}
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
// shape (CacheSafe, sole pool subscription, no outcome listeners) so
// the batch path takes its carrier mode: one reused occurrence and
// params map for the batch.
func cacheSafeBobRule(e *Engine, on string) {
	e.Detector().MustPrimitive(on)
	e.Pool().MustAdd(core.Rule{
		Name: "R", On: on,
		CacheSafe: true,
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
// sequential DecideCheck calls exactly, across rounds (the carrier maps are
// reused between batches).
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
// from several goroutines — the -race proof for carrier reuse.
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

// TestDecideCheckBatchManySessions: 256-tuple carrier-mode batches
// spanning 64 sessions from four concurrent submitters (-race: a
// carrier fill may run on another submitter's drain while reading the
// batch's pooled scratch). Round 0 is all cache misses, so it runs the
// whole batch in carrier mode; later rounds mix hits and misses.
// Verdicts must equal the uncached cascade, Decide.
func TestDecideCheckBatchManySessions(t *testing.T) {
	// The engine always carries the verdict cache; the subtest keeps the
	// name it had when a cache-off leg ran beside it.
	t.Run("fastpath=true", func(t *testing.T) {
		e := NewEngine(clock.NewSim(t0))
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
						dec, err := e.Decide("req", checkParams(tp.User, tp.Session, tp.Operation, tp.Object))
						if err != nil {
							t.Error(err)
							return
						}
						allowed, reason := dec.Verdict()
						if want := (Verdict{Allowed: allowed, Reason: reason}); got[i] != want {
							t.Errorf("g%d round %d: verdict[%d] = %+v, cascade %+v (tuple %+v)", g, round, i, got[i], want, tp)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if st := e.FastPath().Stats(); st.Hits == 0 || st.Misses == 0 {
			t.Errorf("batches should both hit and miss the cache: %+v", st)
		}
	})
}

// TestFastPathServesOnlyItsView: the store publishes a policy view
// before its change hook bumps the cache epoch. A check landing in
// between must not be served the previous view's cached allow. The
// test holds that instant open by detaching the hook.
func TestFastPathServesOnlyItsView(t *testing.T) {
	e, _ := newEngine()
	st := e.Store()
	read := rbac.Permission{Operation: "read", Object: "doc"}
	for _, err := range []error{st.AddRole("R"), st.AddUser("bob"), st.AssignUser("bob", "R"), st.GrantPermission("R", read)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	sid, err := st.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddActiveRole("bob", sid, "R"); err != nil {
		t.Fatal(err)
	}
	e.Detector().MustPrimitive("req")
	e.Pool().MustAdd(core.Rule{
		Name: "CA", On: "req", CacheSafe: true,
		When: []core.Condition{core.BoolCond("permitted", func(o *event.Occurrence) bool {
			s, _ := o.Params["session"].(string)
			return st.CheckAccess(rbac.SessionID(s), read)
		})},
		Then: []core.Action{core.Act("allow", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Allow("CA")
			}
			return nil
		})},
		Else: []core.Action{core.Act("deny", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Deny("CA", "not permitted")
			}
			return nil
		})},
	})
	check := func() bool {
		dec, err := e.DecideCheck("req", "bob", string(sid), "read", "doc")
		if err != nil {
			t.Fatal(err)
		}
		return dec.Allowed()
	}
	if !check() || !check() || e.FastPath().Stats().Hits != 1 {
		t.Fatalf("warm-up: want two allows, the second a cache hit: %+v", e.FastPath().Stats())
	}
	st.SetChangeHook(func(bool, rbac.SessionID) {})
	if err := st.RevokePermission("R", read); err != nil {
		t.Fatal(err)
	}
	if check() {
		t.Fatal("check after the revoke was published served the cached allow")
	}
}

// TestDecisionSlabDroppedOnEscape: the batch floor recycles its
// decisions only when no delivery of the group escaped. Here a
// retaining subscriber joins partway through a batch, so the rest of
// its occurrences — each carrying its slab Decision — are kept after
// the batch returns. The subscriber then leaves, restoring the cacheable
// shape, and during every later batch a vote is cast on each kept
// Decision, as a late retainer could. Every later tuple is bob's and
// must stay allowed: a slab reused regardless of the escape would
// hand those same decisions to the later batches, where the late deny
// lands. Rounds repeat the escape so that a pool drop (the race
// detector drops pooled items at random) cannot hide a reuse.
func TestDecisionSlabDroppedOnEscape(t *testing.T) {
	e, _ := newEngine()
	det := e.Detector()
	det.MustPrimitive("req")
	var (
		mu     sync.Mutex
		kept   []*Decision // decisions reachable from retained occurrences
		joinOn string      // the object whose decision subscribes the retainer
		retSub = -1
		late   bool // vote on the kept decisions from the next decision
	)
	retain := func(o *event.Occurrence) {
		if dec, ok := DecisionOf(o); ok {
			mu.Lock()
			kept = append(kept, dec)
			mu.Unlock()
		}
	}
	e.Pool().MustAdd(core.Rule{
		Name: "R", On: "req", CacheSafe: true,
		Then: []core.Action{core.Act("allow", func(o *event.Occurrence) error {
			dec, _ := DecisionOf(o)
			dec.Allow("R")
			mu.Lock()
			defer mu.Unlock()
			if o.Params["object"] == joinOn {
				id, err := det.Subscribe("req", retain)
				if err != nil {
					return err
				}
				retSub = id
			}
			if late {
				late = false
				for _, k := range kept {
					k.Deny("late", "vote on a retained decision")
				}
			}
			return nil
		})},
	})
	batch := func(prefix string) []CheckTuple {
		tuples := make([]CheckTuple, 16)
		for i := range tuples {
			tuples[i] = CheckTuple{User: "bob", Session: "s", Operation: "read", Object: fmt.Sprint(prefix, i)}
		}
		return tuples
	}
	var got []Verdict
	var err error
	for round := 0; round < 8; round++ {
		if !e.cacheable("req") {
			t.Fatal("rule is not in the cache-safe shape; the slab is untested")
		}
		// The escaping batch: the retainer joins at its fifth tuple.
		prefix := fmt.Sprintf("r%d-esc-", round)
		mu.Lock()
		joinOn = prefix + "4"
		mu.Unlock()
		if got, err = e.DecideCheckBatch("req", batch(prefix), got); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if retSub < 0 || len(kept) == 0 {
			mu.Unlock()
			t.Fatalf("round %d: no delivery escaped", round)
		}
		det.Unsubscribe("req", retSub)
		retSub = -1
		mu.Unlock()
		for later := 0; later < 4; later++ {
			mu.Lock()
			late = true
			mu.Unlock()
			if got, err = e.DecideCheckBatch("req", batch(fmt.Sprintf("r%d-later%d-", round, later)), got); err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if !v.Allowed {
					t.Fatalf("round %d, later batch %d: tuple %d denied (%s): a retained decision was recycled", round, later, i, v.Reason)
				}
			}
		}
	}
}

// TestFastPathEventOrdinals: the cache names an event in one key byte,
// numbered on first use and stable after; once 256 events hold every
// byte, a further cacheable event's checks bypass the cache (counted
// as bypass) and are still decided right.
func TestFastPathEventOrdinals(t *testing.T) {
	e, _ := newEngine()
	cacheSafeBobRule(e, "req")
	fp := e.FastPath()
	seen := map[byte]bool{}
	for i := 0; i < maxEventOrdinals; i++ {
		o, ok := fp.ordinal(fmt.Sprintf("ev%d", i))
		if !ok || seen[o] {
			t.Fatalf("event %d: ordinal %d, %v; want a fresh one", i, o, ok)
		}
		seen[o] = true
	}
	if o, ok := fp.ordinal("ev7"); !ok || o != 7 {
		t.Fatalf("ev7 renumbered: %d, %v", o, ok)
	}
	tuple := []CheckTuple{{User: "bob", Session: "s1", Operation: "read", Object: "a"}}
	for round := 0; round < 2; round++ {
		before := fp.Stats()
		vs, err := e.DecideCheckBatch("req", tuple, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !vs[0].Allowed {
			t.Fatalf("round %d: bob denied", round)
		}
		after := fp.Stats()
		if after.Bypass != before.Bypass+1 || after.Hits != before.Hits || after.Misses != before.Misses {
			t.Fatalf("round %d: stats %+v -> %+v; want one bypass, no hit or miss", round, before, after)
		}
	}
	if e.CheckHit("req", &tuple[0]) {
		t.Fatal("CheckHit served an event the cache cannot key")
	}
}
