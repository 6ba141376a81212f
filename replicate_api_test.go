package activerbac_test

import (
	"strings"
	"sync"
	"testing"

	"activerbac"
)

// TestExportIsOneCutWithApplyPolicy: a SYNC export racing ApplyPolicy
// must pair the policy text with the state that text produced. One
// goroutine alternates two non-idempotent variants (a role and a
// permission added, then removed); the test exports in a loop, and every
// export must install into a fresh replica with matching text, the
// text's role set, clean invariants, and a follow-on install of the
// other variant (the next sync a real replica would see) must not wedge
// on "role already exists".
func TestExportIsOneCutWithApplyPolicy(t *testing.T) {
	const rounds = 200
	variants := []string{xyzPolicy, xyzPolicy + "role Auditor\npermission Auditor: read ledger.dat\n"}
	wantRoles := map[string]int{variants[0]: 5, variants[1]: 6}
	leader := openXYZ(t)

	done, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	defer func() { close(stop); wg.Wait() }() // also runs on t.Fatal
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= rounds; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := leader.ApplyPolicy(variants[i%2]); err != nil {
				t.Errorf("apply round %d: %v", i, err)
				return
			}
		}
	}()

	seen := map[string]bool{}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		_, data, err := leader.ExportSyncSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(data)] {
			continue
		}
		seen[string(data)] = true
		src, err := activerbac.SyncSnapshotPolicy(data)
		if err != nil {
			t.Fatal(err)
		}
		replica, err := activerbac.Open("", &activerbac.Options{Clock: activerbac.NewSimClock(t0)})
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.InstallSyncSnapshot(data); err != nil {
			t.Fatalf("install of export %d: %v", len(seen), err)
		}
		if replica.PolicySource() != src {
			t.Fatal("replica policy text differs from the exported text")
		}
		if got, want := replica.Stats().Roles, wantRoles[src]; got != want {
			t.Fatalf("export %d pairs a %d-role text with %d-role state", len(seen), want, got)
		}
		if errs := replica.CheckInvariants(); len(errs) != 0 {
			t.Fatalf("replica invariants: %v", errs)
		}
		next := variants[0]
		if src == variants[0] {
			next = variants[1]
		}
		if _, err := replica.ApplyPolicy(next); err != nil {
			t.Fatalf("replica wedged on the next variant: %v", err)
		}
		replica.Close()
	}
}

// TestExportInstallSyncSnapshot is the facade half of replication: a
// snapshot exported from one system installs into another (bootstrapped
// empty, as rbacd's replica mode does) and reproduces policy, state and
// verdicts exactly — sessions included.
func TestExportInstallSyncSnapshot(t *testing.T) {
	leader := openXYZ(t)
	sid, err := leader.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AddActiveRole("bob", sid, "PC"); err != nil {
		t.Fatal(err)
	}

	epoch, data, err := leader.ExportSyncSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != leader.PushEpoch() {
		t.Fatalf("export epoch %d, push epoch %d", epoch, leader.PushEpoch())
	}
	if src, err := activerbac.SyncSnapshotPolicy(data); err != nil || src != leader.PolicySource() {
		t.Fatalf("SyncSnapshotPolicy = (%d bytes, %v)", len(src), err)
	}

	replica, err := activerbac.Open("", &activerbac.Options{Clock: activerbac.NewSimClock(t0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	if err := replica.InstallSyncSnapshot(data); err != nil {
		t.Fatal(err)
	}

	// The leader's session answers identically on the replica.
	write := activerbac.Permission{Operation: "write", Object: "purchase-order.dat"}
	if !replica.CheckAccess(sid, write) {
		t.Fatal("replicated session denied on replica")
	}
	if replica.CheckAccess(sid, activerbac.Permission{Operation: "approve", Object: "x"}) {
		t.Fatal("replica allows what leader denies")
	}
	if len(replica.Rules()) != len(leader.Rules()) {
		t.Fatalf("rules: replica %d, leader %d", len(replica.Rules()), len(leader.Rules()))
	}
	if errs := replica.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("replica invariants: %v", errs)
	}

	// A second install over existing state (the steady-state resync) is
	// idempotent.
	if err := replica.InstallSyncSnapshot(data); err != nil {
		t.Fatalf("re-install: %v", err)
	}
	if !replica.CheckAccess(sid, write) {
		t.Fatal("verdict lost on re-install")
	}

	// Corrupt payloads reject without touching the policy.
	if err := replica.InstallSyncSnapshot(data[:len(data)/2]); err == nil {
		t.Fatal("truncated snapshot installed")
	}
	if replica.PolicySource() != leader.PolicySource() {
		t.Fatal("failed install clobbered the policy")
	}
	bad := strings.Replace(string(data), "role PM", "rule PM", 1)
	if err := replica.InstallSyncSnapshot([]byte(bad)); err == nil {
		t.Fatal("snapshot with broken policy installed")
	}
}
