package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMetricCatalogue holds docs/METRICS.md to the code: every family
// NewObserver registers has a row there with its type and labels, and
// every row names a registered family.
func TestMetricCatalogue(t *testing.T) {
	path := filepath.Join("..", "..", "docs", "METRICS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]string{} // name -> "type labels"
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "| `activerbac_") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 5 {
			t.Fatalf("%s: malformed row %q", path, line)
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		labels := strings.TrimSpace(cells[3])
		if labels == "—" {
			labels = ""
		}
		documented[name] = strings.TrimSpace(cells[2]) + " " + strings.ReplaceAll(labels, "`", "")
	}

	registered := map[string]string{}
	for _, f := range NewObserver(0).Registry.families {
		registered[f.name] = string(f.typ) + " " + strings.Join(f.labels, ", ")
	}
	for name, shape := range registered {
		doc, ok := documented[name]
		switch {
		case !ok:
			t.Errorf("%s is registered but not documented in %s", name, path)
		case doc != shape:
			t.Errorf("%s: %s documents %q, registered as %q", name, path, doc, shape)
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("%s is documented in %s but not registered", name, path)
		}
	}
}
