package activerbac

import (
	"fmt"
	"strings"
	"time"

	"activerbac/internal/analyze"
	"activerbac/internal/analyze/reach"
	"activerbac/internal/clock"
	"activerbac/internal/policy"
)

// VerifyConfig bounds the symbolic search; the zero value selects the
// verifier's defaults.
type VerifyConfig = reach.Config

// VerifyFinding is one verification result: a stable RV1xx
// code/severity/subject/message plus, for reachability findings, the
// replayable counterexample.
type VerifyFinding = reach.Finding

// Counterexample is a concrete event sequence driving a freshly loaded
// engine into the violating state; Steps replay via the public API.
type Counterexample = reach.Counterexample

// VerifyStep is one counterexample event.
type VerifyStep = reach.Step

// HasVerifyErrors reports whether any finding is error severity — the
// gate policyc -verify and rbacd -verify=strict fail on.
func HasVerifyErrors(fs []VerifyFinding) bool { return reach.HasErrors(fs) }

// VerifyResult is the outcome of one bounded verification run.
type VerifyResult struct {
	// Findings, errors first, then by code, then by subject. Every
	// counterexample carried here has already reproduced its violation
	// against a real engine (findings that failed replay are replaced
	// by RV199).
	Findings []VerifyFinding `json:"findings"`
	// States and Transitions size the explored system.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	// Truncated reports whether any bound cut the search short.
	Truncated bool `json:"truncated"`
}

// VerifyPolicy runs the bounded symbolic verifier over a policy before
// installation: it parses the source, runs the consistency checker
// (checker errors come back as RV000 findings), compiles the constraint
// system into a finite transition system, explores it exhaustively
// within cfg's bounds, and then replays every counterexample against a
// freshly loaded real engine on a simulated clock. A counterexample
// that fails to reproduce its violation is a verifier bug: the finding
// is replaced by an RV199 error naming the failure. The live system is
// never touched.
func VerifyPolicy(policySource string, cfg VerifyConfig) (VerifyResult, error) {
	spec, err := policy.ParseString(policySource)
	if err != nil {
		return VerifyResult{}, err
	}
	issues := policy.Check(spec)
	if policy.HasErrors(issues) {
		var fs []VerifyFinding
		for _, is := range issues {
			if is.Severity == policy.Error {
				fs = append(fs, VerifyFinding{Finding: analyze.Finding{
					Code: "RV000", Severity: analyze.Error,
					Subject: "policy:" + spec.Name, Msg: is.Msg,
				}})
			}
		}
		return VerifyResult{Findings: fs}, nil
	}
	res := reach.Verify(spec, cfg)
	out := VerifyResult{States: res.States, Transitions: res.Transitions, Truncated: res.Truncated}
	anchor := cfg.Anchor
	if anchor.IsZero() {
		anchor = time.Date(2024, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	for _, f := range res.Findings {
		if f.Counterexample != nil {
			if rerr := replayCounterexample(spec, policySource, f.Counterexample, anchor); rerr != nil {
				out.Findings = append(out.Findings, VerifyFinding{Finding: analyze.Finding{
					Code: "RV199", Severity: analyze.Error, Subject: f.Subject,
					Msg: fmt.Sprintf("verifier self-check failed: counterexample for %s did not reproduce against the engine: %v", f.Code, rerr),
				}})
				continue
			}
		}
		out.Findings = append(out.Findings, f)
	}
	reach.SortFindings(out.Findings)
	return out, nil
}

// Verify runs the bounded verifier over the live system's installed
// policy source. Findings and run stats are counted into the metrics
// registry.
func (s *System) Verify(cfg VerifyConfig) (VerifyResult, error) {
	start := time.Now()
	res, err := VerifyPolicy(s.PolicySource(), cfg)
	if err != nil {
		return res, err
	}
	s.obs.VerifyStates.Add(float64(res.States))
	for _, f := range res.Findings {
		s.obs.VerifyFindings.With(f.Code).Inc()
	}
	s.obs.VerifySeconds.Observe(time.Since(start).Seconds())
	return res, nil
}

// replayCounterexample executes a counterexample's steps against a
// scratch engine loaded from the same policy on a simulated clock
// anchored where the exploration was, then asserts the claimed
// violation holds in the resulting state. Any step the engine refuses,
// and any violation the final state does not exhibit, is returned as
// the self-check error.
func replayCounterexample(spec *policy.Spec, source string, cex *Counterexample, anchor time.Time) error {
	sim := clock.NewSim(anchor)
	sys, err := openSpec(spec, source, nil, &Options{Clock: sim})
	if err != nil {
		return fmt.Errorf("scratch engine: %w", err)
	}
	defer sys.Close()

	sessions := make(map[string]SessionID, 4)
	for i, st := range cex.Steps {
		switch st.Op {
		case "session":
			sid, err := sys.CreateSession(UserID(st.User))
			if err != nil {
				return fmt.Errorf("step %d: create session %s: %w", i, st.Session, err)
			}
			sessions[st.Session] = sid
		case "activate":
			if err := sys.AddActiveRole(UserID(st.User), sessions[st.Session], RoleID(st.Role)); err != nil {
				return fmt.Errorf("step %d: activate %s in %s: %w", i, st.Role, st.Session, err)
			}
		case "drop":
			if err := sys.DropActiveRole(UserID(st.User), sessions[st.Session], RoleID(st.Role)); err != nil {
				return fmt.Errorf("step %d: drop %s in %s: %w", i, st.Role, st.Session, err)
			}
		case "tick":
			at, err := time.Parse(time.RFC3339, st.At)
			if err != nil {
				return fmt.Errorf("step %d: bad tick instant %q: %w", i, st.At, err)
			}
			sim.AdvanceTo(at)
			sys.Quiesce()
		case "check":
			if !sys.CheckAccess(sessions[st.Session], Permission{Operation: st.Operation, Object: st.Object}) {
				return fmt.Errorf("step %d: access (%s %s) denied in %s", i, st.Operation, st.Object, st.Session)
			}
		default:
			return fmt.Errorf("step %d: unknown op %q", i, st.Op)
		}
	}
	return assertViolation(spec, sys, sessions, cex.Violation)
}

// assertViolation checks the counterexample's final-state claim
// against the real engine's state.
func assertViolation(spec *policy.Spec, sys *System, sessions map[string]SessionID, v reach.Violation) error {
	juniors := spec.Juniors()
	activeClosure := func(sid SessionID) (map[string]bool, error) {
		roles, err := sys.SessionRoles(sid)
		if err != nil {
			return nil, err
		}
		out := make(map[string]bool)
		for _, r := range roles {
			for j := range policy.JuniorClosure(juniors, string(r)) {
				out[j] = true
			}
		}
		return out, nil
	}

	switch v.Kind {
	case "dsd-cross-session":
		var set *policy.SoD
		for i := range spec.DSD {
			if spec.DSD[i].Name == v.Set {
				set = &spec.DSD[i]
			}
		}
		if set == nil {
			return fmt.Errorf("dsd set %q not in the policy", v.Set)
		}
		union := make(map[string]bool)
		for name, sid := range sessions {
			if !strings.HasPrefix(name, v.User+"#") {
				continue
			}
			cl, err := activeClosure(sid)
			if err != nil {
				return err
			}
			for r := range cl {
				union[r] = true
			}
		}
		hits := 0
		for _, r := range set.Roles {
			if union[r] {
				hits++
			}
		}
		if hits < set.N {
			return fmt.Errorf("user %s holds %d of dsd set %q across sessions, below the claimed %d", v.User, hits, v.Set, set.N)
		}
	case "cardinality-overrun":
		count := 0
		for _, sid := range sessions {
			cl, err := activeClosure(sid)
			if err != nil {
				return err
			}
			if cl[v.Role] {
				count++
			}
		}
		if count <= v.Limit {
			return fmt.Errorf("only %d sessions act with %q, within the cardinality bound %d", count, v.Role, v.Limit)
		}
	case "window-escape":
		if sys.RoleEnabled(RoleID(v.Role)) {
			return fmt.Errorf("role %q is still enabled — the window never closed", v.Role)
		}
		if len(v.Sessions) == 0 {
			return fmt.Errorf("window-escape violation names no session")
		}
		sid, ok := sessions[v.Sessions[0]]
		if !ok {
			return fmt.Errorf("session %q never created", v.Sessions[0])
		}
		roles, err := sys.SessionRoles(sid)
		if err != nil {
			return err
		}
		for _, r := range roles {
			if string(r) == v.Role {
				return nil
			}
		}
		return fmt.Errorf("role %q no longer active in %s after the window close", v.Role, v.Sessions[0])
	default:
		return fmt.Errorf("unknown violation kind %q", v.Kind)
	}
	return nil
}
