// Package policy implements the paper's high-level access control policy
// specification (Section 5): the declarative form an administrator
// writes (here a text DSL in ".acp" files, standing in for the RBAC
// Manager GUI), the Entity-Relationship-like *access specification
// graph* it instantiates — role nodes carrying relationship flags and
// subscriber pointers to their parents — and the consistency checker the
// paper lists as future work.
//
// The rule generator (internal/rulegen) consumes the graph to emit OWTE
// rules; a policy edit re-parses the spec and regenerates exactly the
// affected rules.
package policy

import (
	"fmt"
	"time"

	"activerbac/internal/clock"
)

// Spec is a parsed enterprise access control policy. Field order follows
// the .acp statement forms; every slice preserves source order so rule
// generation and golden outputs are deterministic.
type Spec struct {
	// Name identifies the policy (the `policy "..."` header).
	Name string
	// Roles lists declared roles in declaration order.
	Roles []string
	// Hierarchy lists senior > junior edges.
	Hierarchy []Edge
	// SSD and DSD list separation-of-duty relations.
	SSD []SoD
	DSD []SoD
	// Users lists user declarations with their role assignments.
	Users []User
	// Permissions lists role-permission grants.
	Permissions []Perm
	// Cardinalities bounds concurrent activations per role.
	Cardinalities []Cardinality
	// MaxRoles bounds active roles per user session.
	MaxRoles []MaxRoles
	// Shifts are periodic role-enabling windows (GTRBAC).
	Shifts []Shift
	// Durations are per-activation duration bounds (Rule 7).
	Durations []Duration
	// TimeSoDs are disabling-time SoD constraints (Rule 6).
	TimeSoDs []TimeSoD
	// Couples are post-condition CFD couplings (Rule 8).
	Couples []Couple
	// Requires are transaction-based activation dependencies (Rule 9).
	Requires []Require
	// Prereqs are same-session prerequisite roles.
	Prereqs []Prereq
	// Purposes and Bindings configure privacy-aware RBAC.
	Purposes []Purpose
	Bindings []Binding
	// ConsentRequired lists consent-protected objects.
	ConsentRequired []string
	// Thresholds configure active-security monitors.
	Thresholds []Threshold
	// Contexts are context-aware activation constraints (location,
	// network state, ...).
	Contexts []Context
	// Reports schedule periodic monitoring reports (the paper's
	// PERIODIC-operator use case).
	Reports []ReportSpec
}

// ReportSpec schedules a system report every Every.
type ReportSpec struct {
	Name  string
	Every time.Duration
}

// Context requires the environmental key to hold Value for Role to be
// (and remain) active: activation is denied otherwise, and a context
// change away from Value deactivates the role everywhere.
type Context struct {
	Role  string
	Key   string
	Value string
}

// Edge is one immediate hierarchy edge: Senior inherits from Junior.
type Edge struct {
	Senior, Junior string
}

// SoD is a named separation-of-duty relation over Roles with
// cardinality N.
type SoD struct {
	Name  string
	Roles []string
	N     int
}

// User declares a user and its role assignments.
type User struct {
	Name  string
	Roles []string
}

// Perm grants (Operation, Object) to Role.
type Perm struct {
	Role      string
	Operation string
	Object    string
}

// Cardinality bounds concurrent activations of Role to N.
type Cardinality struct {
	Role string
	N    int
}

// MaxRoles bounds the active roles per session of User to N.
type MaxRoles struct {
	User string
	N    int
}

// Shift keeps Role enabled within the daily window [Start, Stop)
// (pattern syntax "hh:mm:ss", optionally full periodic expressions).
type Shift struct {
	Role  string
	Start clock.Pattern
	Stop  clock.Pattern
}

// Window converts the shift to a clock.Window.
func (s Shift) Window() clock.Window {
	return clock.Window{Start: s.Start, Stop: s.Stop}
}

// Duration bounds one activation of Role by User to D; User "*" means
// every user.
type Duration struct {
	User string
	Role string
	D    time.Duration
}

// TimeSoD forbids all of Roles being disabled at once within the daily
// window [Start, Stop).
type TimeSoD struct {
	Name  string
	Roles []string
	Start clock.Pattern
	Stop  clock.Pattern
}

// Window converts the constraint interval to a clock.Window.
func (t TimeSoD) Window() clock.Window {
	return clock.Window{Start: t.Start, Stop: t.Stop}
}

// Couple is a Rule 8 coupling: enabling Lead requires enabling Follow.
type Couple struct {
	Lead, Follow string
}

// Require is a Rule 9 dependency: Dependent may be active only while
// Required is active somewhere.
type Require struct {
	Dependent, Required string
}

// Prereq requires Prereq active in the same session before Role.
type Prereq struct {
	Role, Prereq string
}

// Purpose declares a privacy purpose; Parent may be empty.
type Purpose struct {
	Name, Parent string
}

// Binding allows Role to exercise (Operation, Object) for Purpose.
type Binding struct {
	Role      string
	Operation string
	Object    string
	Purpose   string
}

// Threshold configures an active-security monitor: Count denials within
// Window trigger Action ("alert", "lock-user", "disable-rules").
type Threshold struct {
	Name   string
	Count  int
	Window time.Duration
	Action string
}

// RoleSet returns the declared roles as a set.
func (s *Spec) RoleSet() map[string]bool {
	set := make(map[string]bool, len(s.Roles))
	for _, r := range s.Roles {
		set[r] = true
	}
	return set
}

// Juniors returns the immediate senior -> juniors adjacency of the
// hierarchy (self-edges and duplicates dropped).
func (s *Spec) Juniors() map[string][]string {
	adj := make(map[string][]string, len(s.Hierarchy))
	seen := make(map[Edge]bool, len(s.Hierarchy))
	for _, e := range s.Hierarchy {
		if e.Senior == e.Junior || seen[e] {
			continue
		}
		seen[e] = true
		adj[e.Senior] = append(adj[e.Senior], e.Junior)
	}
	return adj
}

// JuniorClosure returns role plus every role it transitively inherits —
// the authorized set one assignment of role grants (NIST RBAC
// hierarchies). juniors is the adjacency from Juniors().
func JuniorClosure(juniors map[string][]string, role string) map[string]bool {
	out := map[string]bool{role: true}
	stack := []string{role}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range juniors[cur] {
			if !out[j] {
				out[j] = true
				stack = append(stack, j)
			}
		}
	}
	return out
}

// String summarizes the spec.
func (s *Spec) String() string {
	return fmt.Sprintf("policy %q: %d roles, %d edges, %d SSD, %d DSD, %d users",
		s.Name, len(s.Roles), len(s.Hierarchy), len(s.SSD), len(s.DSD), len(s.Users))
}
