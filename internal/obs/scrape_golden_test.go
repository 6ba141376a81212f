package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/scrape.golden from the current renderer")

// goldenRegistry builds a registry of every family shape — unlabelled,
// one- and two-label counters, a gauge, labelled and unlabelled
// histograms, one family with no series yet — whose label values need
// every escape the text format defines (quote, backslash, newline) and
// whose series sort differently raw and rendered.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("golden_plain_total", "An unlabelled counter.").With().Add(3)
	one := r.Counter("golden_one_total", "Help with a backslash \\ and a\nnewline.", "kind")
	one.With("read").Inc()
	one.With(`quo"te`).Add(2)
	one.With(`back\slash`).Add(4)
	one.With("new\nline").Add(5)
	one.With("").Add(6)
	two := r.Counter("golden_two_total", "A two-label counter.", "event", "verdict")
	two.With("checkAccess", "allow").Add(7)
	two.With("checkAccess", "deny").Add(8)
	two.With(`a"b\c`+"\nd", `"`).Add(9)
	two.With("a", "b").Add(10)
	two.With("a\"", "").Add(11)
	r.Gauge("golden_depth", "A gauge.").With().Set(-2.5)
	h := r.Histogram("golden_seconds", "A labelled histogram.", []float64{0.1, 1}, "stage")
	h.With("probe").Observe(0.05)
	h.With("probe").Observe(5)
	h.With("cas\"cade\n").Observe(0.5)
	r.Histogram("golden_size", "An unlabelled histogram.", []float64{1, 2, 4}).With().Observe(3)
	r.Counter("golden_empty_total", "A family with no series yet.", "rule")
	return r
}

// TestScrapeGolden pins the exposition text byte for byte: how series
// are stored and looked up may change, what a scraper reads may not.
// Run with -update to rewrite the golden file after a deliberate format
// change.
func TestScrapeGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "scrape.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("scrape differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
