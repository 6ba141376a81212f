package clock

import (
	"testing"
	"time"
)

// FuzzParsePattern feeds arbitrary text to the periodic-expression
// parser. Whatever it accepts must round-trip: String renders text that
// parses back to the same Pattern and renders identically. Next and
// Prev must terminate on it, and any instant they return must match
// the pattern on the right side of the probe instant.
func FuzzParsePattern(f *testing.F) {
	for _, s := range []string{
		"10:00:00/*/*/*", "00:00:00/1/1/*", "*:*:*", "23:59:59/12/31/9999",
		"00:00:00/02/29/*", "12:30:00/02/31/*", "*:15:*/6", "09:00:00/*/*/2027",
	} {
		f.Add(s)
	}
	probe := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePattern(s)
		if err != nil {
			return
		}
		text := p.String()
		back, err := ParsePattern(text)
		if err != nil {
			t.Fatalf("String() of %q = %q does not parse: %v", s, text, err)
		}
		if back != p || back.String() != text {
			t.Fatalf("round trip of %q: %+v -> %q -> %+v", s, p, text, back)
		}
		if next, ok := p.Next(probe); ok && (!next.After(probe) || !p.Matches(next)) {
			t.Fatalf("%q: Next(%v) = %v", text, probe, next)
		}
		if prev, ok := p.Prev(probe); ok && (prev.After(probe) || !p.Matches(prev)) {
			t.Fatalf("%q: Prev(%v) = %v", text, probe, prev)
		}
	})
}
