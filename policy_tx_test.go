package activerbac_test

// Policy transactions: Open, ApplyPolicy and InstallSyncSnapshot make
// their store edits in one rbac.Store transaction and publish the access
// view once. These tests pin the publication count, hold the
// transactional paths to the from-scratch ones, and check that no reader
// ever observes half a reload.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activerbac"
	"activerbac/internal/clock"
	"activerbac/internal/policy"
	"activerbac/internal/rbac"
	"activerbac/internal/store"
	"activerbac/internal/workload"
)

// e16 is the benchmark's 16-role enterprise (benchmark/config.go).
var e16 = workload.EnterpriseConfig{
	Roles: 16, Shape: workload.XYZShape, Branch: 4,
	SSDFraction: 0.4, DSDFraction: 0.7,
	Users: 256, PermsPerRole: 8,
	CardinalityEvery: 8, Seed: 1,
}

// txEpoch is a Monday noon: inside both day-doctor windows.
var txEpoch = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

// withDayDoctor returns spec plus the benchmark's reload edit: a shift
// role "day-doctor" enabled within [start, stop) and bounded to bound
// concurrent activations, held by one extra user "dd".
func withDayDoctor(spec *policy.Spec, start, stop string, bound int) string {
	v := *spec
	v.Roles = append(append([]string{}, spec.Roles...), "day-doctor")
	v.Shifts = []policy.Shift{{Role: "day-doctor", Start: clock.MustPattern(start), Stop: clock.MustPattern(stop)}}
	v.Cardinalities = append(append([]policy.Cardinality{}, spec.Cardinalities...), policy.Cardinality{Role: "day-doctor", N: bound})
	v.Users = append(append([]policy.User{}, spec.Users...), policy.User{Name: "dd", Roles: []string{"day-doctor"}})
	return policy.Format(&v)
}

// dayDoctorVariants are the two policies the reload_fleet workload
// alternates, over e16.
func dayDoctorVariants() (base, edited string) {
	spec := workload.MustEnterprise(e16)
	return withDayDoctor(spec, "07:00:00", "19:00:00", 2), withDayDoctor(spec, "08:00:00", "20:00:00", 3)
}

func examplePolicies(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("examples/policies/*.acp")
	if err != nil || len(paths) == 0 {
		t.Fatalf("example policies: %v (%d found)", err, len(paths))
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = string(src)
	}
	return out
}

func openAt(t *testing.T, src string, at time.Time) *activerbac.System {
	t.Helper()
	sys, err := activerbac.Open(src, &activerbac.Options{Clock: clock.NewSim(at)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// TestOpenPublishesOnce pins Open to one policy publication; publishing
// once per store edit instead made e16 publish 673 times. A shift
// role's schedule sets the role's enabled state at load through a
// direct store call, which publishes on its own: hospital-shifts has two
// shift roles.
func TestOpenPublishesOnce(t *testing.T) {
	srcs := examplePolicies(t)
	srcs["e16"] = policy.Format(workload.MustEnterprise(e16))
	want := map[string]uint64{"hospital-shifts.acp": 3}
	for name, src := range srcs {
		w, ok := want[name]
		if !ok {
			w = 1
		}
		if got := openAt(t, src, txEpoch).SnapshotEpoch(); got != w {
			t.Errorf("%s: store epoch %d after Open, want %d", name, got, w)
		}
	}
}

// TestOpenSnapshotPublishesLikeOpen: OpenSnapshot installs the saved
// policy and state in one policy transaction, so reopening a saved e16
// system with live sessions publishes as often as opening its policy,
// and lands in the saved state.
func TestOpenSnapshotPublishesLikeOpen(t *testing.T) {
	src := policy.Format(workload.MustEnterprise(e16))
	saved := openWithSessions(t, src, txEpoch)
	path := filepath.Join(t.TempDir(), "state.json")
	if err := saved.SaveState(path); err != nil {
		t.Fatal(err)
	}
	restored, err := activerbac.OpenSnapshot(path, &activerbac.Options{Clock: clock.NewSim(txEpoch)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restored.Close() })
	if got, want := restored.SnapshotEpoch(), openAt(t, src, txEpoch).SnapshotEpoch(); got != want {
		t.Errorf("store epoch %d after OpenSnapshot, %d after Open", got, want)
	}
	got, _ := stateOf(t, restored)
	want, _ := stateOf(t, saved)
	diffState(t, "OpenSnapshot vs saved", got, want)
}

// openWithSessions opens src and gives every user two sessions, the
// first with every assigned role activated that the policy admits.
func openWithSessions(t *testing.T, src string, at time.Time) *activerbac.System {
	t.Helper()
	sys := openAt(t, src, at)
	spec, err := policy.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range spec.Users {
		user := activerbac.UserID(u.Name)
		sid, err := sys.CreateSession(user)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range u.Roles {
			_ = sys.AddActiveRole(user, sid, activerbac.RoleID(r))
		}
		if _, err := sys.CreateSession(user); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestApplyPolicyPublicationCount: a day-doctor reload over 512 live
// sessions publishes the policy view twice: once at commit and once for
// the role's regenerated shift schedule, which sets its enabled state
// through a direct store call re-entered from the regeneration.
func TestApplyPolicyPublicationCount(t *testing.T) {
	base, edited := dayDoctorVariants()
	for _, tc := range []struct {
		at   time.Time
		want uint64
	}{
		{txEpoch, 2}, // inside both windows: the schedule re-enables day-doctor
		{txEpoch.Add(-4*time.Hour - 30*time.Minute), 2}, // 07:30: the edit flips day-doctor
	} {
		sys := openWithSessions(t, base, tc.at)
		if n := sys.Stats().Sessions; n < 512 {
			t.Fatalf("%d live sessions, want ≥ 512", n)
		}
		for i, src := range []string{edited, base, edited} {
			before := sys.SnapshotEpoch()
			if _, err := sys.ApplyPolicy(src); err != nil {
				t.Fatal(err)
			}
			if got := sys.SnapshotEpoch() - before; got != tc.want {
				t.Errorf("%s apply %d: store epoch advanced %d, want %d", tc.at.Format("15:04"), i, got, tc.want)
			}
		}
	}
}

// within runs fn and fails the test if it has not returned after d: a
// re-entrance deadlock fails instead of hanging the suite.
func within(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s: not done after %v (deadlock?)", what, d)
	}
}

// systemState is everything a reload must agree on with a fresh load,
// in canonical form: the RBAC state (users, roles with their own
// permissions, hierarchy, enabled state and cardinality, SoD sets), the
// live sessions as (owner, active roles) in creation order, every
// session's verdict on every permission of the policy — the published
// view's effective permissions — and the rule inventory.
type systemState struct {
	users, roles, ssd, dsd string
	sessions               []string
	verdicts               []string
	rules                  []string
}

func stateOf(t *testing.T, sys *activerbac.System) (systemState, []rbac.SessionSnapshot) {
	t.Helper()
	_, data, err := sys.ExportSyncSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	f, err := store.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := policy.ParseString(f.Policy)
	if err != nil {
		t.Fatal(err)
	}
	st := systemState{
		users: fmt.Sprint(f.State.Users), roles: fmt.Sprint(f.State.Roles),
		ssd: fmt.Sprint(f.State.SSD), dsd: fmt.Sprint(f.State.DSD),
	}
	sessions := f.State.Sessions
	sort.Slice(sessions, func(i, j int) bool { return sessionSeq(sessions[i].ID) < sessionSeq(sessions[j].ID) })
	for _, s := range sessions {
		st.sessions = append(st.sessions, fmt.Sprintf("%s %v", s.User, s.Active))
		var allowed []string
		for _, p := range spec.Permissions {
			perm := activerbac.Permission{Operation: p.Operation, Object: p.Object}
			if sys.CheckAccess(s.ID, perm) {
				allowed = append(allowed, perm.String())
			}
		}
		st.verdicts = append(st.verdicts, strings.Join(allowed, ","))
	}
	for _, r := range sys.Rules() {
		st.rules = append(st.rules, fmt.Sprint(r.Name, r.On, r.Class, r.Granularity, r.Priority,
			r.Tags, r.Enabled, r.Conditions, r.Then, r.Else))
	}
	return st, sessions
}

func sessionSeq(sid activerbac.SessionID) int {
	var n int
	fmt.Sscanf(string(sid), "s%d", &n)
	return n
}

func diffState(t *testing.T, what string, got, want systemState) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"users", got.users, want.users},
		{"roles", got.roles, want.roles},
		{"ssd", got.ssd, want.ssd},
		{"dsd", got.dsd, want.dsd},
		{"sessions", got.sessions, want.sessions},
		{"verdicts", got.verdicts, want.verdicts},
		{"rules", got.rules, want.rules},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s: %s differ:\n got %v\nwant %v", what, f.name, f.got, f.want)
		}
	}
}

// replaySessions recreates the given sessions (owner and active roles,
// in order) on a freshly opened system.
func replaySessions(t *testing.T, sys *activerbac.System, sessions []rbac.SessionSnapshot) {
	t.Helper()
	for _, s := range sessions {
		sid, err := sys.CreateSession(s.User)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range s.Active {
			if err := sys.AddActiveRole(s.User, sid, r); err != nil {
				t.Fatalf("replay %s: activate %s: %v", s.ID, r, err)
			}
		}
	}
}

// kindsMinimal and kindsEvery bracket every statement kind: going from
// the first to the second adds roles that declare a cardinality, a
// shift, a duration and the rest, and edits the one role both share.
const kindsMinimal = `policy "kinds"
role A
permission A: read doc
user u: A
`

const kindsEvery = `policy "kinds"
role A
role B
role C
role D
role E
hierarchy A > B
ssd s1 2: B, C
dsd d1 2: C, E
permission A: read doc
permission B: write doc
permission C: read chart
permission E: read ledger
user u: A
user v: B, E
user w: C, D
cardinality A 2
cardinality B 1
maxroles v 1
shift E 08:00:00-20:00:00
duration * C 2h
timesod t1 00:00:00-23:59:59: A, B
couple C -> E
require D needs-active C
prereq D after C
purpose care
bind C read chart for care
consent-required chart
context D requires site = hq
report pulse every 30m
threshold th1 5 in 10m: alert
`

// withoutPurposes drops the purpose and bind lines: purposes are
// append-only across regenerations, so no reload removes them.
func withoutPurposes(src string) string {
	var keep []string
	for _, line := range strings.SplitAfter(src, "\n") {
		if !strings.HasPrefix(line, "purpose ") && !strings.HasPrefix(line, "bind ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "")
}

// TestApplyMatchesOpen: ApplyPolicy(A→B) leaves the system a fresh
// Open(B) with the same sessions would have, and InstallSyncSnapshot of
// the reloaded leader leaves a replica in the leader's state. Cases: the
// two day-doctor directions (one live session holds day-doctor), a
// minimal policy to one using every statement kind and back, and every
// ordered pair of example policies.
func TestApplyMatchesOpen(t *testing.T) {
	base, edited := dayDoctorVariants()
	type pair struct{ name, a, b string }
	pairs := []pair{
		{"day-doctor base→edited", base, edited}, {"day-doctor edited→base", edited, base},
		{"minimal→every kind", kindsMinimal, kindsEvery},
		{"every kind without purposes→minimal", withoutPurposes(kindsEvery), kindsMinimal},
	}
	examples := examplePolicies(t)
	names := make([]string, 0, len(examples))
	for n := range examples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, a := range names {
		for _, b := range names {
			if a != b {
				pairs = append(pairs, pair{a + "→" + b, examples[a], examples[b]})
			}
		}
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			leader := openWithSessions(t, p.a, txEpoch)
			within(t, 10*time.Second, "ApplyPolicy", func() error {
				_, err := leader.ApplyPolicy(p.b)
				return err
			})
			got, sessions := stateOf(t, leader)
			if p.a == base && !strings.Contains(fmt.Sprint(got.sessions), "dd [day-doctor]") {
				t.Fatalf("no live session holds day-doctor: %v", got.sessions)
			}
			fresh := openAt(t, p.b, txEpoch)
			replaySessions(t, fresh, sessions)
			want, _ := stateOf(t, fresh)
			diffState(t, "ApplyPolicy vs Open", got, want)

			_, data, err := leader.ExportSyncSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			replica := openAt(t, p.a, txEpoch)
			within(t, 10*time.Second, "InstallSyncSnapshot", func() error {
				return replica.InstallSyncSnapshot(data)
			})
			installed, rsessions := stateOf(t, replica)
			diffState(t, "InstallSyncSnapshot vs leader", installed, got)
			if !reflect.DeepEqual(rsessions, sessions) {
				t.Errorf("replica sessions %v, leader %v", rsessions, sessions)
			}
		})
	}
}

// TestPolicyViewIsOneCut alternates ApplyPolicy between two variants
// that give role R disjoint permission sets. A reader that sees the
// same store epoch before and after probing all four permissions has
// read one policy view, and that view must give R exactly one variant's
// set: never half a reload. Beside them a session churner requires
// read-your-writes for session-grade publication while reloads are in
// flight: an activation is visible to the very next check.
func TestPolicyViewIsOneCut(t *testing.T) {
	const head = `policy "cut"
role R
role S
permission S: use s.dat
user reader: R
user churn: S
`
	variantA := head + "permission R: read a1.dat\npermission R: read a2.dat\n"
	variantB := head + "permission R: read b1.dat\npermission R: read b2.dat\n"
	probes := []activerbac.Permission{
		{Operation: "read", Object: "a1.dat"}, {Operation: "read", Object: "a2.dat"},
		{Operation: "read", Object: "b1.dat"}, {Operation: "read", Object: "b2.dat"},
	}
	reloads := 300
	if testing.Short() {
		reloads = 60
	}

	sys := openAt(t, variantA, txEpoch)
	sid, err := sys.CreateSession("reader")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("reader", sid, "R"); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var cuts atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				e1 := sys.SnapshotEpoch()
				var seen [4]bool
				for i, p := range probes {
					seen[i] = sys.CheckAccess(sid, p)
				}
				if sys.SnapshotEpoch() != e1 {
					continue // a publication landed mid-probe: not one view
				}
				cuts.Add(1)
				if seen != [4]bool{true, true, false, false} && seen != [4]bool{false, false, true, true} {
					t.Errorf("epoch %d: R has %v of {a1 a2 b1 b2}, want exactly one variant", e1, seen)
					return
				}
			}
		}()
	}
	var activations atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		use := activerbac.Permission{Operation: "use", Object: "s.dat"}
		for !stop.Load() {
			s, err := sys.CreateSession("churn")
			if err != nil {
				t.Errorf("create session: %v", err)
				return
			}
			if err := sys.AddActiveRole("churn", s, "S"); err != nil {
				t.Errorf("activate: %v", err)
				return
			}
			if !sys.CheckAccess(s, use) {
				t.Errorf("session %s: check right after activation denied", s)
				return
			}
			if err := sys.DeleteSession(s); err != nil {
				t.Errorf("delete session: %v", err)
				return
			}
			activations.Add(1)
		}
	}()

	// Reload until the readers and the churner have had their turn too:
	// a fast writer could otherwise finish before they are scheduled.
	within(t, 30*time.Second, "reloads", func() error {
		for i := 0; (i < reloads || cuts.Load() < 100 || activations.Load() < 10) && !t.Failed(); i++ {
			src := variantB
			if i%2 == 1 {
				src = variantA
			}
			if _, err := sys.ApplyPolicy(src); err != nil {
				return fmt.Errorf("reload %d: %w", i, err)
			}
		}
		return nil
	})
	stop.Store(true)
	wg.Wait()
	if cuts.Load() == 0 || activations.Load() == 0 {
		t.Fatalf("readers completed %d one-view probes, churner %d activations: nothing was checked", cuts.Load(), activations.Load())
	}
}
