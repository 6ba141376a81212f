package clock

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Pattern is a GTRBAC calendar pattern of the form "24h:mi:ss/mm/dd/yyyy"
// (the syntax used in the paper's Rule 6: "10:00:00/*/*/*"). Each field is
// either a concrete value or a wildcard. A Pattern denotes the infinite
// set of instants whose calendar fields match every concrete field.
//
// The zero Pattern has every field wild and therefore matches every whole
// second.
type Pattern struct {
	Hour  int // 0..23, or Wild
	Min   int // 0..59, or Wild
	Sec   int // 0..59, or Wild
	Month int // 1..12, or Wild
	Day   int // 1..31, or Wild
	Year  int // e.g. 2026, or Wild
}

// Wild marks a wildcard field in a Pattern.
const Wild = -1

// ParsePattern parses the paper's "24h:mi:ss/mm/dd/yyyy" syntax, e.g.
// "10:00:00/*/*/*" (10 a.m. every day) or "00:00:00/1/1/*" (midnight every
// New Year). A missing trailing "/yyyy" (or "/dd/yyyy") is treated as
// wild.
func ParsePattern(s string) (Pattern, error) {
	p := Pattern{Hour: Wild, Min: Wild, Sec: Wild, Month: Wild, Day: Wild, Year: Wild}
	parts := strings.Split(s, "/")
	if len(parts) < 1 || len(parts) > 4 {
		return p, fmt.Errorf("clock: malformed periodic expression %q", s)
	}
	tod := strings.Split(parts[0], ":")
	if len(tod) != 3 {
		return p, fmt.Errorf("clock: malformed time-of-day in %q (want hh:mi:ss)", s)
	}
	var err error
	set := func(field string, lo, hi int) (int, error) {
		if field == "*" {
			return Wild, nil
		}
		v, convErr := strconv.Atoi(field)
		if convErr != nil || v < lo || v > hi {
			return 0, fmt.Errorf("clock: field %q out of range [%d,%d] in %q", field, lo, hi, s)
		}
		return v, nil
	}
	if p.Hour, err = set(tod[0], 0, 23); err != nil {
		return p, err
	}
	if p.Min, err = set(tod[1], 0, 59); err != nil {
		return p, err
	}
	if p.Sec, err = set(tod[2], 0, 59); err != nil {
		return p, err
	}
	if len(parts) > 1 {
		if p.Month, err = set(parts[1], 1, 12); err != nil {
			return p, err
		}
	}
	if len(parts) > 2 {
		if p.Day, err = set(parts[2], 1, 31); err != nil {
			return p, err
		}
	}
	if len(parts) > 3 {
		if p.Year, err = set(parts[3], 1, 9999); err != nil {
			return p, err
		}
	}
	return p, nil
}

// MustPattern is ParsePattern that panics on error; for literals in tests
// and examples.
func MustPattern(s string) Pattern {
	p, err := ParsePattern(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the pattern back in "hh:mi:ss/mm/dd/yyyy" form.
func (p Pattern) String() string {
	f := func(v int, width int) string {
		if v == Wild {
			return "*"
		}
		return fmt.Sprintf("%0*d", width, v)
	}
	return fmt.Sprintf("%s:%s:%s/%s/%s/%s",
		f(p.Hour, 2), f(p.Min, 2), f(p.Sec, 2), f(p.Month, 2), f(p.Day, 2), f(p.Year, 4))
}

// searchHorizonYears bounds wildcard-year searches; 8 years is enough to
// find any satisfiable month/day combination (including Feb 29).
const searchHorizonYears = 8

// Next returns the earliest instant strictly after t that matches the
// pattern, or ok=false if none exists within the search horizon.
func (p Pattern) Next(t time.Time) (time.Time, bool) {
	t = t.Truncate(time.Second)
	loc := t.Location()
	yearLo, yearHi := t.Year(), t.Year()+searchHorizonYears
	if p.Year != Wild {
		yearLo, yearHi = p.Year, p.Year
		if yearHi < t.Year() {
			return time.Time{}, false
		}
	}
	for y := max(yearLo, t.Year()); y <= yearHi; y++ {
		for m := 1; m <= 12; m++ {
			if p.Month != Wild && p.Month != m {
				continue
			}
			dim := daysIn(y, time.Month(m), loc)
			for d := 1; d <= dim; d++ {
				if p.Day != Wild && p.Day != d {
					continue
				}
				// Fast-skip days wholly before t.
				dayEnd := time.Date(y, time.Month(m), d, 23, 59, 59, 0, loc)
				if !dayEnd.After(t) {
					continue
				}
				if c, ok := p.nextInDay(y, time.Month(m), d, loc, t); ok {
					return c, true
				}
			}
		}
	}
	return time.Time{}, false
}

// nextInDay finds the earliest instant on the given calendar day that is
// strictly after t and matches the time-of-day fields.
func (p Pattern) nextInDay(y int, m time.Month, d int, loc *time.Location, t time.Time) (time.Time, bool) {
	hours := fieldRange(p.Hour, 0, 23)
	mins := fieldRange(p.Min, 0, 59)
	secs := fieldRange(p.Sec, 0, 59)
	for _, h := range hours {
		// Skip hours that end before or at t.
		if time.Date(y, m, d, h, 59, 59, 0, loc).After(t) {
			for _, mi := range mins {
				if time.Date(y, m, d, h, mi, 59, 0, loc).After(t) {
					for _, se := range secs {
						c := time.Date(y, m, d, h, mi, se, 0, loc)
						if c.After(t) {
							return c, true
						}
					}
				}
			}
		}
	}
	return time.Time{}, false
}

// Prev returns the latest instant at or before t that matches the
// pattern, or ok=false if none exists within the search horizon.
func (p Pattern) Prev(t time.Time) (time.Time, bool) {
	t = t.Truncate(time.Second)
	loc := t.Location()
	yearHi, yearLo := t.Year(), t.Year()-searchHorizonYears
	if p.Year != Wild {
		yearLo, yearHi = p.Year, p.Year
		if yearLo > t.Year() {
			return time.Time{}, false
		}
	}
	for y := min(yearHi, t.Year()); y >= yearLo; y-- {
		for m := 12; m >= 1; m-- {
			if p.Month != Wild && p.Month != m {
				continue
			}
			dim := daysIn(y, time.Month(m), loc)
			for d := dim; d >= 1; d-- {
				if p.Day != Wild && p.Day != d {
					continue
				}
				dayStart := time.Date(y, time.Month(m), d, 0, 0, 0, 0, loc)
				if dayStart.After(t) {
					continue
				}
				if c, ok := p.prevInDay(y, time.Month(m), d, loc, t); ok {
					return c, true
				}
			}
		}
	}
	return time.Time{}, false
}

func (p Pattern) prevInDay(y int, m time.Month, d int, loc *time.Location, t time.Time) (time.Time, bool) {
	hours := fieldRange(p.Hour, 0, 23)
	mins := fieldRange(p.Min, 0, 59)
	secs := fieldRange(p.Sec, 0, 59)
	for i := len(hours) - 1; i >= 0; i-- {
		h := hours[i]
		if time.Date(y, m, d, h, 0, 0, 0, loc).After(t) {
			continue
		}
		for j := len(mins) - 1; j >= 0; j-- {
			mi := mins[j]
			if time.Date(y, m, d, h, mi, 0, 0, loc).After(t) {
				continue
			}
			for k := len(secs) - 1; k >= 0; k-- {
				c := time.Date(y, m, d, h, mi, secs[k], 0, loc)
				if !c.After(t) {
					return c, true
				}
			}
		}
	}
	return time.Time{}, false
}

func fieldRange(v, lo, hi int) []int {
	if v != Wild {
		return []int{v}
	}
	r := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		r = append(r, i)
	}
	return r
}

func daysIn(year int, m time.Month, loc *time.Location) int {
	return time.Date(year, m+1, 0, 0, 0, 0, 0, loc).Day()
}

// ---------------------------------------------------------------------------
// Windows: <[begin,end], P>

// Window is a GTRBAC periodic time expression <[Begin,End], P> where P is
// described by a Start pattern and a Stop pattern (e.g. daily 10:00:00 to
// 17:00:00). The window is the union of [s, e) spans where s is a Start
// occurrence and e the first Stop occurrence after s, intersected with
// [Begin, End]. Zero Begin/End mean unbounded on that side.
type Window struct {
	Begin time.Time
	End   time.Time
	Start Pattern
	Stop  Pattern
}

// ParseWindow builds a Window from two pattern strings. Begin and End may
// be zero for an unbounded interval.
func ParseWindow(start, stop string, begin, end time.Time) (Window, error) {
	sp, err := ParsePattern(start)
	if err != nil {
		return Window{}, err
	}
	ep, err := ParsePattern(stop)
	if err != nil {
		return Window{}, err
	}
	return Window{Begin: begin, End: end, Start: sp, Stop: ep}, nil
}

// withinBounds reports whether t lies inside [Begin, End].
func (w Window) withinBounds(t time.Time) bool {
	if !w.Begin.IsZero() && t.Before(w.Begin) {
		return false
	}
	if !w.End.IsZero() && t.After(w.End) {
		return false
	}
	return true
}

// Contains reports whether instant t falls inside the periodic window.
// A point exactly on a Start occurrence is inside; a point exactly on a
// Stop occurrence is outside (half-open spans).
func (w Window) Contains(t time.Time) bool {
	if !w.withinBounds(t) {
		return false
	}
	s, okS := w.Start.Prev(t)
	if !okS {
		return false
	}
	e, okE := w.Stop.Prev(t)
	// Inside iff the most recent transition at or before t is a Start.
	// A Stop at the same instant as t closes the window (half-open).
	if okE && !e.Before(s) {
		return false
	}
	return true
}

// NextStart returns the earliest Start occurrence strictly after t that
// lies within [Begin, End].
func (w Window) NextStart(t time.Time) (time.Time, bool) {
	if !w.Begin.IsZero() && t.Before(w.Begin) {
		t = w.Begin.Add(-time.Second)
	}
	s, ok := w.Start.Next(t)
	if !ok || !w.withinBounds(s) {
		return time.Time{}, false
	}
	return s, true
}

// NextStop returns the earliest Stop occurrence strictly after t that
// lies within [Begin, End] (End itself acts as a final stop when set).
func (w Window) NextStop(t time.Time) (time.Time, bool) {
	s, ok := w.Stop.Next(t)
	if ok && w.withinBounds(s) {
		return s, true
	}
	if !w.End.IsZero() && w.End.After(t) {
		return w.End, true
	}
	return time.Time{}, false
}
