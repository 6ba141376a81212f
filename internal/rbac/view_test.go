package rbac

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// viewDump is a view's content in canonical form: what a reader can
// observe through it, independent of map identity and iteration order.
type viewDump struct {
	epoch    uint64
	perms    map[RoleID]string    // sorted effective permissions
	sessions map[SessionID]string // owner, lock state, sorted active permission sets
}

func dumpView(v *accessView) viewDump {
	d := viewDump{
		epoch:    v.epoch,
		perms:    make(map[RoleID]string, len(v.perms)),
		sessions: make(map[SessionID]string),
	}
	rendered := make(map[uintptr]string, len(v.perms)) // by permission-map identity
	render := func(eff map[Permission]struct{}) string {
		id := reflect.ValueOf(eff).Pointer()
		if s, ok := rendered[id]; ok {
			return s
		}
		ps := make([]string, 0, len(eff))
		for p := range eff {
			ps = append(ps, p.Operation+":"+p.Object)
		}
		sort.Strings(ps)
		s := strings.Join(ps, ",")
		rendered[id] = s
		return s
	}
	for r, eff := range v.perms {
		d.perms[r] = render(eff)
	}
	var sets []string
	for i, leaves := range v.sessions {
		if leaves == nil {
			continue
		}
		for j, leaf := range leaves {
			for sid, sv := range leaf {
				if shard, l := sessionSlot(sid); shard != i || l != j {
					d.sessions[sid] = fmt.Sprintf("in leaf %d/%d, hashes to %d/%d", i, j, shard, l)
					continue
				}
				sets = sets[:0]
				for _, eff := range sv.perms {
					sets = append(sets, render(eff))
				}
				sort.Strings(sets)
				d.sessions[sid] = fmt.Sprintf("%s|%v|%s", sv.user, sv.locked, strings.Join(sets, ";"))
			}
		}
	}
	return d
}

// TestSessionPublicationIsCopyOnWrite drives random session-grade steps
// (and the odd policy-grade one) over 4 096 live sessions. After every
// step the published view must equal a from-scratch projection of the
// store, and the view published before the step must read exactly as
// it did when it was captured: a reader holding it sees no write.
func TestSessionPublicationIsCopyOnWrite(t *testing.T) {
	const nUsers, nRoles, nSessions = 64, 8, 4096
	steps := 200
	if testing.Short() {
		steps = 40
	}
	rng := rand.New(rand.NewSource(16))
	s := NewStore()
	for r := 0; r < nRoles; r++ {
		role := RoleID(fmt.Sprintf("r%d", r))
		mustOK(t, s.AddRole(role))
		mustOK(t, s.GrantPermission(role, Permission{Operation: "op", Object: fmt.Sprintf("obj%d", r)}))
	}
	mustOK(t, s.AddInheritance("r0", "r1"))
	for u := 0; u < nUsers; u++ {
		user := UserID(fmt.Sprintf("u%d", u))
		mustOK(t, s.AddUser(user))
		for r := 0; r < nRoles; r++ {
			mustOK(t, s.AssignUser(user, RoleID(fmt.Sprintf("r%d", r))))
		}
	}

	var live []SessionID
	step := func() {
		switch k := rng.Intn(16); {
		case k < 5 || len(live) < nSessions:
			sid, err := s.CreateSession(UserID(fmt.Sprintf("u%d", rng.Intn(nUsers))))
			mustOK(t, err)
			live = append(live, sid)
		case k < 8:
			i := rng.Intn(len(live))
			mustOK(t, s.DeleteSession(live[i]))
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case k < 15:
			sid := live[rng.Intn(len(live))]
			user, err := s.SessionUser(sid)
			mustOK(t, err)
			role := RoleID(fmt.Sprintf("r%d", rng.Intn(nRoles)))
			if s.AddActiveRole(user, sid, role) != nil { // already active: drop it
				mustOK(t, s.DropActiveRole(user, sid, role))
			}
		default:
			p := Permission{Operation: "extra", Object: fmt.Sprintf("obj%d", rng.Intn(4))}
			if s.GrantPermission("r1", p) != nil {
				mustOK(t, s.RevokePermission("r1", p))
			}
		}
	}
	check := func(what string, got, want viewDump) {
		t.Helper()
		if got.epoch != want.epoch {
			t.Fatalf("%s: epoch %d, want %d", what, got.epoch, want.epoch)
		}
		if !reflect.DeepEqual(got.perms, want.perms) {
			t.Fatalf("%s: effective permissions differ:\n got %v\nwant %v", what, got.perms, want.perms)
		}
		if len(got.sessions) != len(want.sessions) {
			t.Fatalf("%s: %d sessions, want %d", what, len(got.sessions), len(want.sessions))
		}
		for sid, w := range want.sessions {
			if g, ok := got.sessions[sid]; !ok || g != w {
				t.Fatalf("%s: session %s = %q (present %v), want %q", what, sid, g, ok, w)
			}
		}
	}

	for len(live) < nSessions {
		step()
	}
	before := s.view.Load()
	beforeDump := dumpView(before)
	for i := 0; i < steps; i++ {
		step()
		check(fmt.Sprintf("step %d: view captured before the step", i), dumpView(before), beforeDump)

		after := s.view.Load()
		afterDump := dumpView(after)
		s.mu.Lock()
		scratch := s.projectLocked(after.epoch)
		s.mu.Unlock()
		check(fmt.Sprintf("step %d: published view against a from-scratch projection", i), afterDump, dumpView(scratch))
		if len(afterDump.sessions) != len(live) {
			t.Fatalf("step %d: view has %d sessions, %d are live", i, len(afterDump.sessions), len(live))
		}
		before, beforeDump = after, afterDump
	}
}

// sessionLoad returns a store holding live sessions of one user.
func sessionLoad(tb testing.TB, live int) *Store {
	s := NewStore()
	if err := s.AddUser("u"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < live; i++ {
		if _, err := s.CreateSession("u"); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// createSessionBurst is how many sessions a flatness measurement adds
// on top of the live count before deleting them again, untimed.
const createSessionBurst = 256

// timeCreateSessions creates len(sids) sessions, deletes them again and
// returns the time the creations took.
func timeCreateSessions(tb testing.TB, s *Store, sids []SessionID) time.Duration {
	t0 := time.Now()
	for i := range sids {
		sids[i], _ = s.CreateSession("u")
	}
	d := time.Since(t0)
	for _, sid := range sids {
		if err := s.DeleteSession(sid); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// BenchmarkCreateSession times CreateSession — one copy-on-write view
// publication — at 512, 4 096 and 16 384 live sessions (ROADMAP:
// "rbac.create_session_us flat from 512 to 16k sessions").
func BenchmarkCreateSession(b *testing.B) {
	for _, live := range []int{512, 4096, 16384} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			s := sessionLoad(b, live)
			sids := make([]SessionID, createSessionBurst)
			var total time.Duration
			for done := 0; done < b.N; done += len(sids) {
				total += timeCreateSessions(b, s, sids[:min(len(sids), b.N-done)])
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
		})
	}
}

// TestCreateSessionFlat: the cost of creating a session varies by at
// most 3× between 512 and 16 384 live sessions (publishing by cloning
// the whole session map made it 32×).
func TestCreateSessionFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	var lo, hi time.Duration
	for _, live := range []int{512, 4096, 16384} {
		s := sessionLoad(t, live)
		sids := make([]SessionID, createSessionBurst)
		best := timeCreateSessions(t, s, sids)
		for round := 1; round < 20; round++ {
			best = min(best, timeCreateSessions(t, s, sids))
		}
		t.Logf("live=%d: %d ns/create", live, best.Nanoseconds()/createSessionBurst)
		if lo == 0 || best < lo {
			lo = best
		}
		hi = max(hi, best)
	}
	if hi > 3*lo {
		t.Fatalf("CreateSession cost varies %.1f× with the live-session count, want ≤ 3×", float64(hi)/float64(lo))
	}
}
