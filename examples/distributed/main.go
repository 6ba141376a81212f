// Distributed enforcement: the paper's future-work item — one
// enterprise policy enforced at several sites — over the real
// replication protocol. A leader serves SYNC snapshots on a loopback
// wire listener; two replicas bootstrap empty, pull the policy and the
// full compiled state (sessions included), and then serve checks
// entirely from their local snapshots, resyncing on every epoch push.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"activerbac"
	"activerbac/internal/replicate"
	"activerbac/internal/wire"
)

const globalPolicy = `
policy "acme-global"
role Engineer
role Auditor
dsd eng-audit 2: Engineer, Auditor
permission Engineer: deploy service
user ivy: Engineer
user omar: Auditor
`

// leaderBackend adapts the leader system + hub to the wire server: the
// Backend checks (a request's Trace carries into the batch) plus the
// optional sync, push and replica-tracking upgrades.
type leaderBackend struct {
	sys *activerbac.System
	hub *replicate.Hub
}

func (b leaderBackend) PolicyEpoch() uint64 { return b.sys.SnapshotEpoch() }
func (b leaderBackend) PushEpoch() uint64   { return b.sys.PushEpoch() }
func (b leaderBackend) CheckCacheable(s, op, obj string) (bool, bool) {
	return b.sys.CheckAccessTupleCacheable(s, op, obj)
}
func (b leaderBackend) CheckHit(r *wire.CheckRequest) bool {
	c := activerbac.BatchCheck{Session: r.Session, Operation: r.Operation, Object: r.Object, Trace: r.Trace}
	if b.sys.CheckAccessHit(&c) {
		return true
	}
	r.Trace = c.Trace
	return false
}
func (b leaderBackend) CheckBatch(reqs []wire.CheckRequest, vs []bool) []bool {
	checks := make([]activerbac.BatchCheck, len(reqs))
	for i, r := range reqs {
		checks[i] = activerbac.BatchCheck{Session: r.Session, Operation: r.Operation, Object: r.Object, Trace: r.Trace}
	}
	return b.sys.CheckAccessBatch(checks, vs)
}
func (b leaderBackend) SyncSnapshot(name string, applied uint64) (wire.SyncState, error) {
	return b.hub.SyncSnapshot(name, applied)
}
func (b leaderBackend) ReplicaDisconnected(name string) { b.hub.ReplicaDisconnected(name) }

// installer is the replica-side applier: verified snapshots install
// straight through the facade (rbacd additionally gates them through
// analyze/verify first).
type installer struct{ sys *activerbac.System }

func (i installer) Apply(data []byte) error { return i.sys.InstallSyncSnapshot(data) }

func main() {
	clock := activerbac.NewSimClock(time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC))
	leader, err := activerbac.Open(globalPolicy, &activerbac.Options{Clock: clock})
	if err != nil {
		log.Fatal(err)
	}
	defer leader.Close()

	hub := replicate.NewHub(leader, nil)
	srv := wire.NewServer(leaderBackend{sys: leader, hub: hub}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	leader.OnEpochBump(srv.NotifyEpoch)

	// Two replica sites bootstrap empty; the first sync brings policy,
	// assignments and sessions.
	type site struct {
		name string
		sys  *activerbac.System
		rep  *replicate.Replica
	}
	var sites []site
	for _, name := range []string{"eu-west", "apac"} {
		sys, err := activerbac.Open("", &activerbac.Options{Clock: clock})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := replicate.StartReplica(replicate.ReplicaOptions{
			Name: name, LeaderAddr: ln.Addr().String(), Applier: installer{sys},
		})
		if err != nil {
			log.Fatal(err)
		}
		sites = append(sites, site{name, sys, rep})
	}
	defer func() {
		for _, s := range sites {
			s.rep.Close()
			s.sys.Close()
		}
	}()

	// converged waits until every replica has applied the leader's
	// current push epoch.
	converged := func() {
		target := leader.PushEpoch()
		for _, s := range sites {
			for s.rep.AppliedEpoch() < target {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	converged()

	// A session created at the leader replicates: any replica can
	// answer for it, reads scale with replica count.
	sid, err := leader.CreateSession("ivy")
	if err != nil {
		log.Fatal(err)
	}
	must(leader.AddActiveRole("ivy", sid, "Engineer"))
	converged()
	deploy := activerbac.Permission{Operation: "deploy", Object: "service"}
	fmt.Println("ivy's leader session, checked at every site from local state:")
	fmt.Printf("  %-8s %v\n", "leader", leader.CheckAccess(sid, deploy))
	for _, s := range sites {
		fmt.Printf("  %-8s %v (applied epoch %d)\n", s.name, s.sys.CheckAccess(sid, deploy), s.rep.AppliedEpoch())
	}

	// One policy edit reaches every site through one coalesced sync.
	fmt.Println("\npolicy change: Engineer gets a 2-activation cardinality, everywhere")
	if _, err := leader.ApplyPolicy(globalPolicy + "cardinality Engineer 2\n"); err != nil {
		log.Fatal(err)
	}
	converged()
	for _, s := range sites {
		fmt.Printf("  %-8s rules=%d verified=%v\n",
			s.name, len(s.sys.Rules()), len(s.sys.VerifyRules()) == 0)
	}

	fmt.Println("\nleader registry (GET /v1/replication in rbacd):")
	for _, st := range hub.Status() {
		fmt.Printf("  %-8s applied=%d lag=%d connected=%v\n", st.Name, st.AppliedEpoch, st.Lag, st.Connected)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
