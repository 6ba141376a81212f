package policy

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary text to the policy parser. Whatever it
// accepts must survive Format: the formatted text parses again, and
// formatting that spec reproduces the same text (Format is a fixpoint
// after one round). Seeds are the example policies, which between them
// cover every statement kind including periodic expressions.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob("../../examples/policies/*.acp")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no example policies to seed from: %v", err)
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(kitchenSink)

	f.Fuzz(func(t *testing.T, src string) {
		spec, err := ParseString(src)
		if err != nil {
			return
		}
		once := Format(spec)
		back, err := ParseString(once)
		if err != nil {
			t.Fatalf("formatted text does not parse: %v\n%s", err, once)
		}
		if twice := Format(back); twice != once {
			t.Fatalf("Format is not a fixpoint:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
		}
	})
}
