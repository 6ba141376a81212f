package activerbac_test

import (
	"os"
	"path/filepath"
	"testing"

	"activerbac"
	"activerbac/internal/policy"
)

// FuzzInstallSyncSnapshot feeds arbitrary bytes to InstallSyncSnapshot
// on a replica bootstrapped empty, as rbacd's replica mode is. Nothing
// may panic, and whatever the install accepts must leave the store's
// invariants intact. Seeds are sync exports of the example policies
// with one session per user holding every role it could activate.
func FuzzInstallSyncSnapshot(f *testing.F) {
	paths, err := filepath.Glob("examples/policies/*.acp")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example policies to seed from: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(exportWithSessions(f, string(src)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		replica, err := activerbac.Open("", &activerbac.Options{Clock: activerbac.NewSimClock(t0)})
		if err != nil {
			t.Fatal(err)
		}
		defer replica.Close()
		if err := replica.InstallSyncSnapshot(data); err != nil {
			return
		}
		if errs := replica.CheckInvariants(); len(errs) != 0 {
			t.Fatalf("accepted install broke invariants: %v", errs)
		}
	})
}

// exportWithSessions opens src, gives every declared user a session
// with each assigned role activated where the policy allows it, and
// returns the system's sync export.
func exportWithSessions(f *testing.F, src string) []byte {
	spec, err := policy.ParseString(src)
	if err != nil {
		f.Fatal(err)
	}
	sys, err := activerbac.Open(src, &activerbac.Options{Clock: activerbac.NewSimClock(t0)})
	if err != nil {
		f.Fatal(err)
	}
	defer sys.Close()
	for _, u := range spec.Users {
		sid, err := sys.CreateSession(activerbac.UserID(u.Name))
		if err != nil {
			continue
		}
		for _, r := range u.Roles {
			_ = sys.AddActiveRole(activerbac.UserID(u.Name), sid, activerbac.RoleID(r))
		}
	}
	_, data, err := sys.ExportSyncSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	return data
}
