// Package obs is the observability layer of the enforcement engine:
// a dependency-free metrics registry rendered in the Prometheus text
// exposition format, and per-decision cascade traces retained in a
// fixed-size ring buffer.
//
// The package sits below every other internal package (it imports only
// the standard library), so the event detector, the rule pool, the
// audit log and the facade can all record into it without cycles.
// Metering is always on: every engine carries an Observer, and a
// metered decision finds each labelled series without locking or
// allocating, then updates it with atomics. What stays optional is
// tracing: a nil trace ring, sampler, slow ring or *Trace costs one
// pointer comparison on the hot path.
package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType is the TYPE line value of a metric family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; metric
// updates (Add/Set/Observe) are lock-free on the hot path.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	scrapers []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// maxLabels bounds a family's label names: no metric in the catalog
// partitions by more than two, and a fixed bound lets a series be found
// by an array of its raw label values.
const maxLabels = 2

// labelKey is a series' raw label values, unused trailing slots empty.
type labelKey [maxLabels]string

// family is one named metric with a fixed label-name set and a series
// per label-value combination.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histogram families only

	// series is copy-on-write: a lookup of an existing series reads the
	// published map without locking or allocating; creating a series
	// publishes a new map under mu. Series are never deleted.
	mu     sync.Mutex
	series atomic.Pointer[map[labelKey]series]
}

// series is one labelled instance of a family.
type series interface {
	// write renders the series' sample lines. lset is the rendered
	// label set ("" or `{k="v",...}` without histogram le).
	write(w io.Writer, name, lset string)
}

// register adds a family, panicking on a duplicate name with a
// different shape (a programming error: metric names are static).
func (r *Registry) register(name, help string, typ metricType, buckets []float64, labels ...string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(labels) > maxLabels {
		panic(fmt.Sprintf("obs: metric %q has %d labels, at most %d supported", name, len(labels), maxLabels))
	}
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets}
	f.series.Store(&map[labelKey]series{})
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// OnScrape registers fn to run at the start of every WritePrometheus
// call, before rendering. Collectors use it to mirror engine-internal
// counters (per-rule firing counts, store sizes) into the registry with
// zero hot-path cost.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.scrapers = append(r.scrapers, fn)
	r.mu.Unlock()
}

// WritePrometheus runs the scrape collectors and renders every family
// in the Prometheus text exposition format (version 0.0.4), families
// sorted by name and series sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	scrapers := append([]func(){}, r.scrapers...)
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, fn := range scrapers {
		fn()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(w io.Writer) {
	m := *f.series.Load()
	type rendered struct {
		lset string
		s    series
	}
	snap := make([]rendered, 0, len(m))
	for k, s := range m {
		snap = append(snap, rendered{renderLabels(f.labels, k[:]), s})
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].lset < snap[j].lset })
	// A family with no series yet still renders its HELP/TYPE headers:
	// the registered catalog is discoverable before traffic arrives.
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	for _, r := range snap {
		r.s.write(w, f.name, r.lset)
	}
}

// with returns the series for the given label values, creating it on
// first use. Finding an existing series takes no lock and allocates
// nothing; creation copies the map, once per series.
func (f *family) with(mk func() series, values []string) series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	var k labelKey
	copy(k[:], values)
	if s, ok := (*f.series.Load())[k]; ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m := *f.series.Load()
	if s, ok := m[k]; ok {
		return s // created while this caller waited for mu
	}
	next := maps.Clone(m)
	s := mk()
	next[k] = s
	f.series.Store(&next)
	return s
}

// renderLabels formats a label set as `{k="v",...}` (or "" when empty)
// with Prometheus escaping. Only the scrape renders labels.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing value. Set exists only for
// scrape-time mirrors of counters owned elsewhere (the rule pool's
// atomic firing counts); hot paths use Inc/Add.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (must be >= 0).
func (c *Counter) Add(delta float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Set overwrites the value; for mirroring externally owned monotone
// counters at scrape time.
func (c *Counter) Set(v float64) { c.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(w io.Writer, name, lset string) {
	fmt.Fprintf(w, "%s%s %s\n", name, lset, formatFloat(c.Value()))
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// Counter registers (or returns) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, nil, labels...)}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(func() series { return &Counter{} }, values).(*Counter)
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a value that may go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, lset string) {
	fmt.Fprintf(w, "%s%s %s\n", name, lset, formatFloat(g.Value()))
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, typeGauge, nil, labels...)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.with(func() series { return &Gauge{} }, values).(*Gauge)
}

// ---------------------------------------------------------------------------
// Histogram

// LatencyBuckets is the default bucket layout for sub-second latency
// histograms: 1µs to 2.5s in a 1-2.5-5 progression.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram is a fixed-bucket histogram. Buckets are cumulative only at
// render time; Observe touches a single non-cumulative bucket counter,
// the total count and the sum.
type Histogram struct {
	upper []float64 // sorted upper bounds, +Inf implicit
	count []atomic.Uint64
	inf   atomic.Uint64
	total atomic.Uint64
	sum   atomic.Uint64 // float64 bits
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, count: make([]atomic.Uint64, len(upper))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	if i < len(h.upper) {
		h.count[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) write(w io.Writer, name, lset string) {
	// Re-open the label set to append le="...".
	open := "{"
	if lset != "" {
		open = lset[:len(lset)-1] + ","
	}
	var cum uint64
	for i, ub := range h.upper {
		cum += h.count[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=\"%s\"} %d\n", name, open, formatFloat(ub), cum)
	}
	cum += h.inf.Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, open, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, lset, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, lset, h.total.Load())
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// Histogram registers (or returns) a histogram family with the given
// bucket upper bounds (sorted ascending; +Inf is implicit). A nil
// buckets slice selects LatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return &HistogramVec{r.register(name, help, typeHistogram, buckets, labels...)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.with(func() series { return newHistogram(f.buckets) }, values).(*Histogram)
}
