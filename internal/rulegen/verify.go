package rulegen

import (
	"fmt"
	"strings"

	"activerbac/internal/core"
	"activerbac/internal/rbac"
)

// Verify implements the paper's future-work item "the generated rules
// should be verified": it audits the live rule pool against the loaded
// specification and access graph, reporting every discrepancy. A
// healthy engine returns nil; a non-nil result means the pool was
// tampered with (rules removed, renamed or retagged outside the
// generator) or the generator itself has a defect.
//
// Checked invariants:
//
//  1. Every declared role has its localized rule set: exactly one AAR
//     rule — of the variant its graph flags select — plus DAR, ENB and
//     TSOD1 rules, a CC1 rule iff the role is cardinality-bounded, and
//     a CTX rule iff it carries context requirements.
//  2. The global rules exist: CA1, CAP1, the four ADM rules, CTX.apply.
//  3. Every maxroles user has its specialized rule.
//  4. Every rule's triggering event is defined in the detector.
//  5. Localized rules carry their role tag; no rule references a role
//     absent from the policy.
//  6. No unexpected rules exist (reports aside, every pool entry is
//     accounted for by the policy).
func (g *Generator) Verify() []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("rulegen: verify: "+format, args...))
	}

	pool := g.eng.Pool().Snapshot()
	byName := make(map[string]core.RuleInfo, len(pool))
	for _, r := range pool {
		byName[r.Name] = r
	}
	accounted := make(map[string]bool, len(pool))
	expect := func(name, onEvent, roleTag string) {
		accounted[name] = true
		r, ok := byName[name]
		if !ok {
			fail("missing rule %q", name)
			return
		}
		if onEvent != "" && r.On != onEvent {
			fail("rule %q triggers on %q, want %q", name, r.On, onEvent)
		}
		if !g.eng.Detector().Defined(r.On) {
			fail("rule %q triggers on undefined event %q", name, r.On)
		}
		if roleTag != "" && !hasTagInfo(r, roleTag) {
			fail("rule %q lacks tag %q (has %v)", name, roleTag, r.Tags)
		}
	}

	// 1: per-role localized rules.
	for _, roleName := range g.spec.Roles {
		role := rbac.RoleID(roleName)
		node, ok := g.graph.Node(roleName)
		if !ok {
			fail("role %q missing from graph", roleName)
			continue
		}
		variant := 1
		if node.Hierarchy {
			variant = 2
		}
		if node.HasDynamicSoD() {
			if node.Hierarchy {
				variant = 4
			} else {
				variant = 3
			}
		}
		tag := TagRole(role)
		expect(fmt.Sprintf("AAR%d.%s", variant, roleName), EvAddActiveRole(role), tag)
		// No other AAR variant may coexist for the role.
		for v := 1; v <= 4; v++ {
			name := fmt.Sprintf("AAR%d.%s", v, roleName)
			if v != variant {
				if _, dup := byName[name]; dup {
					fail("stale activation rule %q (current variant is AAR%d)", name, variant)
					accounted[name] = true
				}
			}
		}
		expect(fmt.Sprintf("DAR.%s", roleName), EvDropActiveRole(role), tag)
		expect(fmt.Sprintf("ENB.%s", roleName), EvEnableRole(role), tag)
		expect(fmt.Sprintf("TSOD1.%s", roleName), EvDisableRole(role), tag)
		ccName := fmt.Sprintf("CC1.%s", roleName)
		if node.Cardinality > 0 {
			expect(ccName, EvRoleActivated(role), tag)
		} else if _, dup := byName[ccName]; dup {
			fail("cardinality rule %q exists but role has no bound", ccName)
			accounted[ccName] = true
		}
		ctxName := fmt.Sprintf("CTX.%s", roleName)
		if node.Context {
			expect(ctxName, EvContextUpdate, tag)
		} else if _, dup := byName[ctxName]; dup {
			fail("context rule %q exists but role has no context requirement", ctxName)
			accounted[ctxName] = true
		}
	}

	// 2: globals.
	expect("CA1", EvCheckAccess, TagGlobal)
	expect("CAP1", EvCheckPurposeAccess, TagGlobal)
	expect("ADM.assignUser", EvAssignUser, TagGlobal)
	expect("ADM.deassignUser", EvDeassignUser, TagGlobal)
	expect("ADM.createSession", EvCreateSession, TagGlobal)
	expect("ADM.deleteSession", EvDeleteSession, TagGlobal)
	expect("CTX.apply", EvContextUpdate, TagGlobal)

	// 3: specialized rules.
	for _, m := range g.spec.MaxRoles {
		expect(fmt.Sprintf("SPEC.maxroles.%s", m.User), "", TagUser(rbac.UserID(m.User)))
	}

	// 6: leftovers. Report rules are versioned and policy-driven;
	// account for the live ones.
	g.repMu.Lock()
	for name, st := range g.reports {
		accounted[fmt.Sprintf("RPT.%s.v%d", name, st.version)] = true
	}
	g.repMu.Unlock()
	for _, r := range pool {
		if accounted[r.Name] {
			continue
		}
		if strings.HasPrefix(r.Name, "RPT.") {
			fail("orphan report rule %q (schedule not installed)", r.Name)
			continue
		}
		fail("unexpected rule %q in pool", r.Name)
	}
	return errs
}

func hasTagInfo(r core.RuleInfo, tag string) bool {
	for _, t := range r.Tags {
		if t == tag {
			return true
		}
	}
	return false
}
