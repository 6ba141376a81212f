package obs

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.", "kind")
	c.With("read").Add(3)
	c.With("write").Inc()
	g := r.Gauge("test_depth", "Depth.")
	g.With().Set(7.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_ops_total Operations.\n",
		"# TYPE test_ops_total counter\n",
		`test_ops_total{kind="read"} 3` + "\n",
		`test_ops_total{kind="write"} 1` + "\n",
		"# TYPE test_depth gauge\n",
		"test_depth 7.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name: test_depth before test_ops_total.
	if strings.Index(out, "test_depth") > strings.Index(out, "test_ops_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "Latency.", []float64{0.1, 1, 10}).With()
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		"test_seconds_sum 56.05",
		"test_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramWithLabels(t *testing.T) {
	r := NewRegistry()
	v := r.Histogram("test_wait_seconds", "Wait.", []float64{1}, "lane")
	v.With("global").Observe(0.5)
	v.With("scope-0").Observe(2)
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`test_wait_seconds_bucket{lane="global",le="1"} 1`,
		`test_wait_seconds_bucket{lane="scope-0",le="+Inf"} 1`,
		`test_wait_seconds_count{lane="global"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "Esc.", "name").With(`a"b\c` + "\nd").Inc()
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	want := `test_total{name="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("output missing %q:\n%s", want, b.String())
	}
}

func TestOnScrapeCollectors(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_mirrored", "Mirrored.").With()
	calls := 0
	r.OnScrape(func() { calls++; g.Set(float64(calls)) })
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	_ = r.WritePrometheus(&b)
	if calls != 2 {
		t.Fatalf("collector ran %d times, want 2", calls)
	}
	if !strings.Contains(b.String(), "test_mirrored 2") {
		t.Errorf("mirrored value not rendered:\n%s", b.String())
	}
}

func TestReRegisterReturnsSameFamily(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "A.")
	b := r.Counter("test_total", "A.")
	a.With().Add(2)
	b.With().Inc()
	if got := a.With().Value(); got != 3 {
		t.Fatalf("value = %v, want 3", got)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "C.", "k")
	h := r.Histogram("test_seconds", "H.", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.With("x").Inc()
				h.With().Observe(float64(i))
			}
		}(i)
	}
	wg.Wait()
	if got := c.With("x").Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
	if got := h.With().Count(); got != 8000 {
		t.Fatalf("histogram count = %v, want 8000", got)
	}
}

// TestWithExistingSeriesZeroAlloc: finding a series that already
// exists renders nothing and allocates nothing, for every label arity
// and instrument kind the catalog uses — it is what every metered
// decision pays per instrument.
func TestWithExistingSeriesZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c0 := r.Counter("test_zero_total", "Zero labels.")
	c1 := r.Counter("test_one_total", "One label.", "op")
	c2 := r.Counter("test_two_total", "Two labels.", "event", "verdict")
	g1 := r.Gauge("test_gauge", "One label.", "op")
	h1 := r.Histogram("test_seconds", "One label.", nil, "event")
	event, verdict := "checkAccess", `al"low`
	for _, tc := range []struct {
		name string
		use  func()
	}{
		{"counter/0", func() { c0.With().Inc() }},
		{"counter/1", func() { c1.With(event).Inc() }},
		{"counter/2", func() { c2.With(event, verdict).Add(2) }},
		{"gauge/1", func() { g1.With(event).Set(1) }},
		{"histogram/1", func() { h1.With(event).Observe(0.5) }},
	} {
		tc.use() // create the series
		if allocs := testing.AllocsPerRun(100, tc.use); allocs != 0 {
			t.Errorf("%s: %v allocs per With on an existing series, want 0", tc.name, allocs)
		}
	}
	if got := c2.With(event, verdict).Value(); got != 2*101+2 {
		t.Errorf("two-label counter = %v, want %v", got, 2*101+2)
	}
}

// TestSeriesCreatedDuringScrape: series created concurrently with
// WritePrometheus (under -race, the copy-on-write publication) are
// neither lost nor torn; every one renders once the writers finish.
func TestSeriesCreatedDuringScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "C.", "worker", "n")
	h := r.Histogram("test_seconds", "H.", []float64{1}, "worker")
	const workers, perWorker = 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := strconv.Itoa(w)
			for n := 0; n < perWorker; n++ {
				c.With(worker, strconv.Itoa(n)).Inc()
				c.With(worker, strconv.Itoa(n/2)).Inc()
				h.With(worker).Observe(float64(n))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraped
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if got := strings.Count(out, "\ntest_total{"); got != workers*perWorker {
		t.Errorf("%d counter series rendered, want %d", got, workers*perWorker)
	}
	if got := strings.Count(out, "\ntest_seconds_count{"); got != workers {
		t.Errorf("%d histogram series rendered, want %d", got, workers)
	}
	for w := 0; w < workers; w++ {
		worker := strconv.Itoa(w)
		if got := c.With(worker, "0").Value(); got != 3 {
			t.Errorf("worker %s n=0: %v, want 3", worker, got)
		}
		if got := h.With(worker).Count(); got != perWorker {
			t.Errorf("worker %s histogram count %d, want %d", worker, got, perWorker)
		}
	}
}
