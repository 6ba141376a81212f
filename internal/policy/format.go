package policy

import (
	"fmt"
	"strings"

	"activerbac/internal/clock"
)

// Format renders a spec as canonical .acp source. Parse(Format(s)) is
// equivalent to s (statement for statement, in order), which is what
// lets generated specs flow through every surface that consumes policy
// text (the facade, the compiler, snapshots).
func Format(s *Spec) string {
	var b strings.Builder
	if s.Name != "" {
		// The parser trims plain quotes and reads no escapes: no %q.
		fmt.Fprintf(&b, "policy \"%s\"\n", s.Name)
	}
	for _, r := range s.Roles {
		fmt.Fprintf(&b, "role %s\n", r)
	}
	for _, e := range s.Hierarchy {
		fmt.Fprintf(&b, "hierarchy %s > %s\n", e.Senior, e.Junior)
	}
	for _, set := range s.SSD {
		fmt.Fprintf(&b, "ssd %s %d: %s\n", set.Name, set.N, strings.Join(set.Roles, ", "))
	}
	for _, set := range s.DSD {
		fmt.Fprintf(&b, "dsd %s %d: %s\n", set.Name, set.N, strings.Join(set.Roles, ", "))
	}
	for _, p := range s.Permissions {
		fmt.Fprintf(&b, "permission %s: %s %s\n", p.Role, p.Operation, p.Object)
	}
	for _, u := range s.Users {
		if len(u.Roles) == 0 {
			fmt.Fprintf(&b, "user %s\n", u.Name)
		} else {
			fmt.Fprintf(&b, "user %s: %s\n", u.Name, strings.Join(u.Roles, ", "))
		}
	}
	for _, c := range s.Cardinalities {
		fmt.Fprintf(&b, "cardinality %s %d\n", c.Role, c.N)
	}
	for _, m := range s.MaxRoles {
		fmt.Fprintf(&b, "maxroles %s %d\n", m.User, m.N)
	}
	for _, sh := range s.Shifts {
		fmt.Fprintf(&b, "shift %s %s-%s\n", sh.Role, timeOfDay(sh.Start), timeOfDay(sh.Stop))
	}
	for _, d := range s.Durations {
		fmt.Fprintf(&b, "duration %s %s %s\n", d.User, d.Role, d.D)
	}
	for _, ts := range s.TimeSoDs {
		fmt.Fprintf(&b, "timesod %s %s-%s: %s\n", ts.Name, timeOfDay(ts.Start), timeOfDay(ts.Stop),
			strings.Join(ts.Roles, ", "))
	}
	for _, c := range s.Couples {
		fmt.Fprintf(&b, "couple %s -> %s\n", c.Lead, c.Follow)
	}
	for _, rq := range s.Requires {
		fmt.Fprintf(&b, "require %s needs-active %s\n", rq.Dependent, rq.Required)
	}
	for _, p := range s.Prereqs {
		fmt.Fprintf(&b, "prereq %s after %s\n", p.Role, p.Prereq)
	}
	for _, p := range s.Purposes {
		if p.Parent == "" {
			fmt.Fprintf(&b, "purpose %s\n", p.Name)
		} else {
			fmt.Fprintf(&b, "purpose %s < %s\n", p.Name, p.Parent)
		}
	}
	for _, bd := range s.Bindings {
		fmt.Fprintf(&b, "bind %s %s %s for %s\n", bd.Role, bd.Operation, bd.Object, bd.Purpose)
	}
	for _, obj := range s.ConsentRequired {
		fmt.Fprintf(&b, "consent-required %s\n", obj)
	}
	for _, th := range s.Thresholds {
		fmt.Fprintf(&b, "threshold %s %d in %s: %s\n", th.Name, th.Count, th.Window, th.Action)
	}
	for _, c := range s.Contexts {
		fmt.Fprintf(&b, "context %s requires %s = %s\n", c.Role, c.Key, c.Value)
	}
	for _, r := range s.Reports {
		fmt.Fprintf(&b, "report %s every %s\n", r.Name, r.Every)
	}
	return b.String()
}

// timeOfDay renders the hh:mm:ss prefix of a pattern, the shape the
// shift/timesod statements accept.
func timeOfDay(p clock.Pattern) string {
	f := func(v int) string {
		if v < 0 {
			return "*"
		}
		return fmt.Sprintf("%02d", v)
	}
	return f(p.Hour) + ":" + f(p.Min) + ":" + f(p.Sec)
}
