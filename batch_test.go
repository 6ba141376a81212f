package activerbac_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"activerbac"
)

// TestCheckAccessBatchMatchesSequential: the facade batch path must
// agree with CheckAccessTuple on every element, in input order, with
// duplicates and unknown sessions included, both cold and with the
// fast path warm.
func TestCheckAccessBatchMatchesSequential(t *testing.T) {
	sys, err := activerbac.Open(xyzPolicy, &activerbac.Options{
		Clock:   activerbac.NewSimClock(t0),
		Metrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	bobSid, err := sys.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("bob", bobSid, "PC"); err != nil {
		t.Fatal(err)
	}
	aliceSid, err := sys.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("alice", aliceSid, "PM"); err != nil {
		t.Fatal(err)
	}

	checks := []activerbac.BatchCheck{
		{Session: string(bobSid), Operation: "write", Object: "purchase-order.dat"},
		{Session: string(aliceSid), Operation: "read", Object: "lobby.txt"},
		{Session: string(bobSid), Operation: "approve", Object: "purchase-order.dat"},
		{Session: string(bobSid), Operation: "write", Object: "purchase-order.dat"}, // duplicate of [0]
		{Session: "no-such-session", Operation: "read", Object: "lobby.txt"},
		{Session: string(aliceSid), Operation: "read", Object: "lobby.txt"}, // duplicate of [1]
	}
	want := make([]bool, len(checks))
	for i, c := range checks {
		want[i] = sys.CheckAccessTuple(c.Session, c.Operation, c.Object)
	}

	// Two rounds: the first populates the fast path, the second must be
	// served (at least partly) from it — same verdicts either way.
	buf := make([]bool, 0, len(checks))
	for round := 0; round < 2; round++ {
		got := sys.CheckAccessBatch(checks, buf[:0])
		if len(got) != len(want) {
			t.Fatalf("round %d: %d verdicts, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("round %d: verdict[%d] = %v, want %v (%+v)", round, i, got[i], want[i], checks[i])
			}
		}
		if cap(got) != cap(buf) {
			t.Errorf("round %d: verdict slice reallocated (cap %d, want %d)", round, cap(got), cap(buf))
		}
	}

	stats := sys.FastPathStats()
	if stats.Hits == 0 {
		t.Errorf("fast path saw no hits across warm batch round: %+v", stats)
	}

	var sb strings.Builder
	if err := sys.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, metric := range []string{
		"activerbac_batch_size_sum",
		"activerbac_batch_groups_total",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics output missing %s", metric)
		}
	}

	t.Run("threshold-input-order", batchMatchesSequentialUnderThreshold)
}

// batchMatchesSequentialUnderThreshold is the order-sensitive input: a
// non-cacheable policy (an active-security denial threshold locks the
// user on the third denial) and one batch interleaving two sessions of
// that user. Denials mutate state, so the batch is only equal to
// sequential CheckAccessTuple calls if it runs its tuples in input
// order; grouping by session would lock bob before his second
// session's allowed checks ran.
func batchMatchesSequentialUnderThreshold(t *testing.T) {
	checksFor := func(sys *activerbac.System) []activerbac.BatchCheck {
		var sids [2]string
		for i := range sids {
			sid, err := sys.CreateSession("bob")
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.AddActiveRole("bob", sid, "PC"); err != nil {
				t.Fatal(err)
			}
			sids[i] = string(sid)
		}
		steal := activerbac.BatchCheck{Session: sids[0], Operation: "steal", Object: "secrets"}
		write := activerbac.BatchCheck{Session: sids[1], Operation: "write", Object: "purchase-order.dat"}
		return []activerbac.BatchCheck{steal, write, steal, write, steal, write}
	}
	open := func() *activerbac.System {
		sys, err := activerbac.Open(xyzPolicy+"threshold intrusions 3 in 5m: lock-user\n",
			&activerbac.Options{Clock: activerbac.NewSimClock(t0)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		return sys
	}

	seq := open()
	var want []bool
	for _, c := range checksFor(seq) {
		want = append(want, seq.CheckAccessTuple(c.Session, c.Operation, c.Object))
	}
	if !want[1] || want[5] {
		t.Fatalf("sequential verdicts %v: want the lock to land between the writes", want)
	}
	batched := open()
	got := batched.CheckAccessBatch(checksFor(batched), nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch verdicts %v, sequential %v", got, want)
		}
	}
}

// TestCheckAccessBatchEmpty: zero checks answer zero verdicts without
// touching the engine.
func TestCheckAccessBatchEmpty(t *testing.T) {
	sys := openXYZ(t)
	if got := sys.CheckAccessBatch(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %v", got)
	}
}

// TestBatchSizeObservedInEveryTraceMode: the batch-size histogram
// records every CheckAccessBatch call once, with its submitted size,
// whether the engine traces nothing, everything, or a sample.
func TestBatchSizeObservedInEveryTraceMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts activerbac.Options
	}{
		{"metrics", activerbac.Options{Metrics: true}},
		{"trace-everything", activerbac.Options{TraceBuffer: 64}},
		{"trace-sampled", activerbac.Options{TraceBuffer: 64, TraceSample: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Clock = activerbac.NewSimClock(t0)
			sys, err := activerbac.Open(xyzPolicy, &opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			sid, err := sys.CreateSession("bob")
			if err != nil {
				t.Fatal(err)
			}
			c := activerbac.BatchCheck{Session: string(sid), Operation: "write", Object: "purchase-order.dat"}
			for i := 0; i < 3; i++ {
				sys.CheckAccessBatch([]activerbac.BatchCheck{c, c, c, c}, nil)
			}
			var sb strings.Builder
			if err := sys.WriteMetrics(&sb); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"activerbac_batch_size_count 3\n", "activerbac_batch_size_sum 12\n"} {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("metrics lack %q", strings.TrimSpace(want))
				}
			}
		})
	}
}

// TestCheckAccessBatchTraceField: a nonzero Trace on any check of a
// batch — the first or a later one — traces exactly that check under
// its id, and the verdicts still equal sequential CheckAccessTuple.
func TestCheckAccessBatchTraceField(t *testing.T) {
	// A sample rate that rounds to zero: only client-traced checks are
	// traced.
	sys, err := activerbac.Open(xyzPolicy, &activerbac.Options{
		Clock:       activerbac.NewSimClock(t0),
		TraceBuffer: 64, TraceSample: 1e-300,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sid, err := sys.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("bob", sid, "PC"); err != nil {
		t.Fatal(err)
	}
	write := activerbac.BatchCheck{Session: string(sid), Operation: "write", Object: "purchase-order.dat"}
	approve := activerbac.BatchCheck{Session: string(sid), Operation: "approve", Object: "purchase-order.dat"}
	checks := []activerbac.BatchCheck{write, approve, write, approve, write, write}
	var want []bool
	for _, c := range checks {
		want = append(want, sys.CheckAccessTuple(c.Session, c.Operation, c.Object))
	}

	first, later := activerbac.NewTraceID(), activerbac.NewTraceID()
	checks[0].Trace, checks[3].Trace = first, later
	got := sys.CheckAccessBatch(checks, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("traced batch verdicts %v, sequential %v", got, want)
		}
	}
	for _, tid := range []activerbac.TraceID{first, later} {
		td, ok, err := sys.TraceByTraceID(tid)
		if err != nil || !ok || !td.Complete || len(td.Steps) == 0 {
			t.Fatalf("TraceByTraceID(%s) = (%+v, %v, %v), want a complete trace", tid, td, ok, err)
		}
	}
	if recent, _ := sys.RecentTraces(64); len(recent) != 2 {
		t.Fatalf("%d traces retained, want exactly the 2 client-traced checks", len(recent))
	}
}

// TestSlowBatchRecorded: an untraced CheckAccessBatch slower than
// SlowThreshold is one slow record, scoped to its first check and
// carrying its first denial; a single check is a batch of one and is
// recorded the same way.
func TestSlowBatchRecorded(t *testing.T) {
	sys, err := activerbac.Open(xyzPolicy, &activerbac.Options{SlowThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sid, err := sys.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("bob", sid, "PC"); err != nil {
		t.Fatal(err)
	}
	before, err := sys.SlowDecisions(64)
	if err != nil {
		t.Fatal(err)
	}
	write := activerbac.BatchCheck{Session: string(sid), Operation: "write", Object: "purchase-order.dat"}
	approve := activerbac.BatchCheck{Session: string(sid), Operation: "approve", Object: "purchase-order.dat"}
	if got := sys.CheckAccessBatch([]activerbac.BatchCheck{write, approve, write}, nil); !got[0] || got[1] || !got[2] {
		t.Fatalf("verdicts %v, want [true false true]", got)
	}
	if !sys.CheckAccessTuple(write.Session, write.Operation, write.Object) {
		t.Fatal("single check denied")
	}
	recs, err := sys.SlowDecisions(64)
	if err != nil {
		t.Fatal(err)
	}
	recs = recs[:len(recs)-len(before)] // newest first
	if len(recs) != 2 {
		t.Fatalf("%d slow records for one batch and one check, want 2: %+v", len(recs), recs)
	}
	single, batch := recs[0], recs[1]
	if batch.Event != "req.checkAccess" || batch.Scope != string(sid) || batch.Allowed || batch.Reason == "" {
		t.Errorf("batch slow record %+v: want req.checkAccess for %s, denied with a reason", batch, sid)
	}
	if single.Scope != string(sid) || !single.Allowed || single.Reason != "" {
		t.Errorf("single-check slow record %+v: want an allow for %s", single, sid)
	}
}

// TestBatchStageTimings: an untraced CheckAccessBatch records the
// fastpath_probe stage once, and the cascade stage once when any check
// missed the cache.
func TestBatchStageTimings(t *testing.T) {
	sys, err := activerbac.Open(xyzPolicy, &activerbac.Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sid, err := sys.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	stageCounts := func() (probe, cascade int) {
		var sb strings.Builder
		if err := sys.WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `activerbac_stage_seconds_count{stage="fastpath_probe"} `); ok {
				probe, _ = strconv.Atoi(v)
			}
			if v, ok := strings.CutPrefix(line, `activerbac_stage_seconds_count{stage="cascade"} `); ok {
				cascade, _ = strconv.Atoi(v)
			}
		}
		return probe, cascade
	}
	probe0, cascade0 := stageCounts()
	c := activerbac.BatchCheck{Session: string(sid), Operation: "write", Object: "purchase-order.dat"}
	sys.CheckAccessBatch([]activerbac.BatchCheck{c, c, c}, nil)
	probe1, cascade1 := stageCounts()
	if probe1 != probe0+1 {
		t.Errorf("fastpath_probe count %d -> %d, want one more", probe0, probe1)
	}
	if cascade1 != cascade0+1 {
		t.Errorf("cascade count %d -> %d, want one more", cascade0, cascade1)
	}
}
