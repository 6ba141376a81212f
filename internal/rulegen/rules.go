package rulegen

import (
	"fmt"

	"activerbac/internal/core"
	"activerbac/internal/event"
	"activerbac/internal/gtrbac"
	"activerbac/internal/policy"
	"activerbac/internal/rbac"
	"activerbac/internal/sentinel"
)

// generateGlobalRules emits the globalized rules: the administrative
// rules (user-role assignment, sessions) and the check-access rules CA1
// and CAP1, which are the same for every role (paper Rule 5).
func (g *Generator) generateGlobalRules() error {
	det := g.eng.Detector()
	pool := g.eng.Pool()
	st := g.eng.Store()

	for _, ev := range []string{
		EvCheckAccess, EvCheckPurposeAccess,
		EvAssignUser, EvDeassignUser, EvCreateSession, EvDeleteSession,
		EvContextUpdate,
	} {
		if err := det.DefinePrimitive(ev); err != nil {
			return err
		}
	}

	// CTX.apply stores context updates in the engine environment. It
	// runs at high priority so the per-role context rules (and any rule
	// conditions) observe the new value within the same cascade.
	if err := pool.Add(core.Rule{
		Name: "CTX.apply", On: EvContextUpdate, Priority: 100,
		Class: core.Administrative, Granularity: core.Globalized,
		Tags: []string{TagGlobal},
		Then: []core.Action{
			core.Act("env.set(key, value)", func(o *event.Occurrence) error {
				key, _ := o.Params["key"].(string)
				value, _ := o.Params["value"].(string)
				if key == "" {
					return fmt.Errorf("rulegen: context update without key")
				}
				g.eng.Env().Set(key, value)
				return nil
			}),
			allow("CTX.apply"),
		},
		Else: []core.Action{g.deny("CTX.apply", "Context Update Rejected")},
	}); err != nil {
		return err
	}

	// CA1 (Rule 5): allow the operation iff some role in the session's
	// active role set has the permission. CacheSafe: both conditions
	// read only the store's published view for the request tuple, the
	// Then branch just votes, and the Else branch (denial recording)
	// only runs on the never-cached deny outcome.
	if err := pool.Add(core.Rule{
		Name: "CA1", On: EvCheckAccess,
		Class: core.ActivityControl, Granularity: core.Globalized,
		CacheSafe: true,
		Tags:      []string{TagGlobal, TagCritical},
		When: []core.Condition{
			core.BoolCond("sessionId IN sessionL", func(o *event.Occurrence) bool {
				return st.SessionExists(sessionOf(o))
			}),
			core.BoolCond("ForANY role IN getSessionRoles: checkPermissions(operation, object, role)",
				func(o *event.Occurrence) bool {
					return st.CheckAccess(sessionOf(o), permOf(o))
				}),
		},
		Then: []core.Action{allow("CA1")},
		Else: []core.Action{g.deny("CA1", "Permission Denied")},
	}); err != nil {
		return err
	}

	// CAP1: privacy-aware check access — core decision plus purpose
	// binding and consent.
	if err := pool.Add(core.Rule{
		Name: "CAP1", On: EvCheckPurposeAccess,
		Class: core.ActivityControl, Granularity: core.Globalized,
		Tags: []string{TagGlobal, TagCritical},
		When: []core.Condition{
			core.BoolCond("sessionId IN sessionL", func(o *event.Occurrence) bool {
				return st.SessionExists(sessionOf(o))
			}),
			core.BoolCond("checkPermissions(operation, object, role)", func(o *event.Occurrence) bool {
				return st.CheckAccess(sessionOf(o), permOf(o))
			}),
			core.BoolCond("checkPurposeBinding(role, permission, purpose) AND consent", func(o *event.Occurrence) bool {
				purpose, _ := o.Params["purpose"].(string)
				_, ok := g.pa.CheckPurposeAccess(sessionOf(o), permOf(o), purpose)
				return ok
			}),
		},
		Then: []core.Action{allow("CAP1")},
		Else: []core.Action{g.deny("CAP1", "Permission Denied For Purpose")},
	}); err != nil {
		return err
	}

	// ADM rules: the administrative rule pool (paper scenario 3 — one
	// globalized rule controls all user-role assignments).
	if err := pool.Add(core.Rule{
		Name: "ADM.assignUser", On: EvAssignUser,
		Class: core.Administrative, Granularity: core.Globalized,
		Tags: []string{TagGlobal},
		When: []core.Condition{
			core.BoolCond("user IN userL", func(o *event.Occurrence) bool {
				return st.UserExists(userOf(o))
			}),
			core.BoolCond("role IN roleL", func(o *event.Occurrence) bool {
				return st.RoleExists(roleParam(o))
			}),
			core.BoolCond("role NOT IN assignedRoles(user)", func(o *event.Occurrence) bool {
				return !st.CheckAssigned(userOf(o), roleParam(o))
			}),
			core.BoolCond("checkSSDSet(user, role)", func(o *event.Occurrence) bool {
				return st.CheckSSDAssign(userOf(o), roleParam(o))
			}),
		},
		Then: []core.Action{
			core.Act("assignUser(user, role)", func(o *event.Occurrence) error {
				return st.RawAssignUser(userOf(o), roleParam(o))
			}),
			allow("ADM.assignUser"),
		},
		Else: []core.Action{g.deny("ADM.assignUser", "Assignment Denied")},
	}); err != nil {
		return err
	}

	if err := pool.Add(core.Rule{
		Name: "ADM.deassignUser", On: EvDeassignUser,
		Class: core.Administrative, Granularity: core.Globalized,
		Tags: []string{TagGlobal},
		When: []core.Condition{
			core.BoolCond("role IN assignedRoles(user)", func(o *event.Occurrence) bool {
				return st.CheckAssigned(userOf(o), roleParam(o))
			}),
		},
		Then: []core.Action{
			core.Act("deassignUser(user, role)", func(o *event.Occurrence) error {
				return st.DeassignUser(userOf(o), roleParam(o))
			}),
			allow("ADM.deassignUser"),
		},
		Else: []core.Action{g.deny("ADM.deassignUser", "Deassignment Denied")},
	}); err != nil {
		return err
	}

	if err := pool.Add(core.Rule{
		Name: "ADM.createSession", On: EvCreateSession,
		Class: core.Administrative, Granularity: core.Globalized,
		Tags: []string{TagGlobal},
		When: []core.Condition{
			core.BoolCond("user IN userL", func(o *event.Occurrence) bool {
				return st.UserExists(userOf(o))
			}),
			core.BoolCond("user NOT locked", func(o *event.Occurrence) bool {
				return !st.UserLocked(userOf(o))
			}),
		},
		Then: []core.Action{
			core.Act("createSession(user)", func(o *event.Occurrence) error {
				sid, err := st.CreateSession(userOf(o))
				if err != nil {
					return err
				}
				if dec, ok := sentinel.DecisionOf(o); ok {
					dec.SetResult(string(sid))
					dec.Allow("ADM.createSession")
				}
				return nil
			}),
		},
		Else: []core.Action{g.deny("ADM.createSession", "Session Creation Denied")},
	}); err != nil {
		return err
	}

	return pool.Add(core.Rule{
		Name: "ADM.deleteSession", On: EvDeleteSession,
		Class: core.Administrative, Granularity: core.Globalized,
		Tags: []string{TagGlobal},
		When: []core.Condition{
			core.BoolCond("sessionId IN sessionL", func(o *event.Occurrence) bool {
				return st.SessionExists(sessionOf(o))
			}),
		},
		Then: []core.Action{
			core.Act("deleteSession(sessionId)", func(o *event.Occurrence) error {
				sid := sessionOf(o)
				user, err := st.SessionUser(sid)
				if err != nil {
					return err
				}
				roles, err := st.SessionRoles(sid)
				if err != nil {
					return err
				}
				if err := st.DeleteSession(sid); err != nil {
					return err
				}
				// Notify per-role listeners (duration timers, Rule 9)
				// that the activations ended.
				for _, r := range roles {
					_ = g.eng.Detector().RaiseFrom(o, gtrbac.EvSessionRoleDropped, event.Params{
						"user": string(user), "session": string(sid),
						"role": string(r), "reason": "session-deleted",
					})
				}
				return nil
			}),
			allow("ADM.deleteSession"),
		},
		Else: []core.Action{g.deny("ADM.deleteSession", "Session Deletion Denied")},
	})
}

// generateRole emits the localized rules for one role, variant-selected
// from the access specification graph flags exactly as in Section 5:
// AAR1 for plain core roles, AAR2 with hierarchies, AAR3 with dynamic
// SoD, AAR4 with both; plus the deactivation rule, the cardinality rule
// (Rule 4) when bounded, the enable/disable rules (Rule 6) and the
// periodic shift schedule.
func (g *Generator) generateRole(role rbac.RoleID) error {
	node, ok := g.graph.Node(string(role))
	if !ok {
		return fmt.Errorf("rulegen: role %q not in graph", role)
	}
	det := g.eng.Detector()
	pool := g.eng.Pool()
	st := g.eng.Store()
	tag := TagRole(role)

	for _, ev := range []string{
		EvAddActiveRole(role), EvDropActiveRole(role), EvRoleActivated(role),
		EvEnableRole(role), EvDisableRole(role),
	} {
		if err := det.DefinePrimitive(ev); err != nil {
			return err
		}
	}

	// --- Activation rule AARn.role -----------------------------------
	variant := 1
	authDesc := fmt.Sprintf("checkAssigned%s(user) IS TRUE", role)
	authCond := func(o *event.Occurrence) bool { return st.CheckAssigned(userOf(o), role) }
	if node.Hierarchy {
		variant = 2
		authDesc = fmt.Sprintf("checkAuthorization%s(user) IS TRUE", role)
		authCond = func(o *event.Occurrence) bool { return st.CheckAuthorized(userOf(o), role) }
	}
	conds := []core.Condition{
		core.BoolCond("user IN userL", func(o *event.Occurrence) bool {
			return st.UserExists(userOf(o)) && !st.UserLocked(userOf(o))
		}),
		core.BoolCond("sessionId IN sessionL", func(o *event.Occurrence) bool {
			return st.SessionExists(sessionOf(o))
		}),
		core.BoolCond("sessionId IN checkUserSessions(user)", func(o *event.Occurrence) bool {
			return st.CheckUserSession(userOf(o), sessionOf(o))
		}),
		core.BoolCond(fmt.Sprintf("%s NOT IN checkSessionRoles(sessionId)", role), func(o *event.Occurrence) bool {
			return !st.CheckSessionRole(sessionOf(o), role)
		}),
		core.BoolCond(fmt.Sprintf("roleEnabled(%s)", role), func(o *event.Occurrence) bool {
			return st.RoleEnabled(role)
		}),
		core.Cond(authDesc, func(o *event.Occurrence) (bool, error) { return authCond(o), nil }),
	}
	if node.HasDynamicSoD() {
		if node.Hierarchy {
			variant = 4
		} else {
			variant = 3
		}
		conds = append(conds, core.BoolCond(
			fmt.Sprintf("checkDynamicSoDSet(user, %s) IS TRUE", role),
			func(o *event.Occurrence) bool {
				return st.CheckDynamicSoD(sessionOf(o), role)
			}))
	}
	if node.CFD {
		conds = append(conds, core.Cond(
			fmt.Sprintf("checkCFD(%s) IS TRUE", role),
			func(o *event.Occurrence) (bool, error) {
				if reason, ok := g.cf.CanActivate(sessionOf(o), role); !ok {
					return false, fmt.Errorf("rulegen: %s", reason)
				}
				return true, nil
			}))
	}
	// Context-aware constraints (pervasive-computing scenarios): the
	// environment must match every requirement to activate.
	var ctxReqs []policy.Context
	for _, c := range g.spec.Contexts {
		if c.Role == string(role) {
			ctxReqs = append(ctxReqs, c)
		}
	}
	for _, c := range ctxReqs {
		c := c
		conds = append(conds, core.BoolCond(
			fmt.Sprintf("context(%s == %s)", c.Key, c.Value),
			func(*event.Occurrence) bool {
				return g.eng.Env().Match(c.Key, c.Value)
			}))
	}
	aarName := fmt.Sprintf("AAR%d.%s", variant, role)
	if err := pool.Add(core.Rule{
		Name: aarName, On: EvAddActiveRole(role),
		Class: core.ActivityControl, Granularity: core.Localized,
		Tags: []string{tag},
		When: conds,
		Then: []core.Action{
			core.Act(fmt.Sprintf("addSessionRole%s(sessionId)", role), func(o *event.Occurrence) error {
				return st.RawAddSessionRole(sessionOf(o), role)
			}),
			allow(aarName),
			core.Act(fmt.Sprintf("raise %s", EvRoleActivated(role)), func(o *event.Occurrence) error {
				return det.RaiseFrom(o, EvRoleActivated(role), o.Params)
			}),
			core.Act("raise "+gtrbac.EvSessionRoleAdded, func(o *event.Occurrence) error {
				p := o.Params.Clone()
				if p == nil {
					p = event.Params{}
				}
				p["role"] = string(role)
				return det.RaiseFrom(o, gtrbac.EvSessionRoleAdded, p)
			}),
		},
		Else: []core.Action{g.deny(aarName, "Access Denied Cannot Activate")},
	}); err != nil {
		return err
	}

	// --- Cardinality rule CC1.role (Rule 4) ---------------------------
	if node.Cardinality > 0 {
		limit := node.Cardinality
		ccName := fmt.Sprintf("CC1.%s", role)
		if err := pool.Add(core.Rule{
			Name: ccName, On: EvRoleActivated(role),
			Class: core.ActivityControl, Granularity: core.Localized,
			Tags: []string{tag},
			When: []core.Condition{
				core.BoolCond(fmt.Sprintf("Cardinality%s(INCR) <= %d", role, limit), func(*event.Occurrence) bool {
					return st.RoleActiveCount(role) <= limit
				}),
			},
			// Within the limit: the activation stands.
			Else: []core.Action{
				core.Act(fmt.Sprintf("removeSessionRole%s(sessionId)", role), func(o *event.Occurrence) error {
					// Roll the activation back; ignore a concurrent drop.
					_ = st.RawDropSessionRole(sessionOf(o), role)
					p := o.Params.Clone()
					p["role"] = string(role)
					p["reason"] = "cardinality-rollback"
					return det.RaiseFrom(o, gtrbac.EvSessionRoleDropped, p)
				}),
				g.deny(ccName, "Maximum Number of Roles Reached"),
			},
		}); err != nil {
			return err
		}
	}

	// --- Deactivation rule DAR.role -----------------------------------
	darName := fmt.Sprintf("DAR.%s", role)
	if err := pool.Add(core.Rule{
		Name: darName, On: EvDropActiveRole(role),
		Class: core.ActivityControl, Granularity: core.Localized,
		Tags: []string{tag},
		When: []core.Condition{
			core.BoolCond("sessionId IN checkUserSessions(user)", func(o *event.Occurrence) bool {
				return st.CheckUserSession(userOf(o), sessionOf(o))
			}),
			core.BoolCond(fmt.Sprintf("%s IN checkSessionRoles(sessionId)", role), func(o *event.Occurrence) bool {
				return st.CheckSessionRole(sessionOf(o), role)
			}),
		},
		Then: []core.Action{
			core.Act(fmt.Sprintf("removeSessionRole%s(sessionId)", role), func(o *event.Occurrence) error {
				return st.RawDropSessionRole(sessionOf(o), role)
			}),
			allow(darName),
			core.Act("raise "+gtrbac.EvSessionRoleDropped, func(o *event.Occurrence) error {
				p := o.Params.Clone()
				if p == nil {
					p = event.Params{}
				}
				p["role"] = string(role)
				return det.RaiseFrom(o, gtrbac.EvSessionRoleDropped, p)
			}),
		},
		Else: []core.Action{g.deny(darName, "Access Denied Cannot Deactivate")},
	}); err != nil {
		return err
	}

	// --- Enable / disable rules (Rule 6 surface) ----------------------
	enbName := fmt.Sprintf("ENB.%s", role)
	if err := pool.Add(core.Rule{
		Name: enbName, On: EvEnableRole(role),
		Class: core.Administrative, Granularity: core.Localized,
		Tags: []string{tag},
		Then: []core.Action{
			core.Act(fmt.Sprintf("enableRole%s()", role), func(*event.Occurrence) error {
				return g.gt.EnableRole(role)
			}),
			allow(enbName),
		},
	}); err != nil {
		return err
	}
	tsodName := fmt.Sprintf("TSOD1.%s", role)
	if err := pool.Add(core.Rule{
		Name: tsodName, On: EvDisableRole(role),
		Class: core.ActivityControl, Granularity: core.Localized,
		Tags: []string{tag},
		When: []core.Condition{
			core.BoolCond(fmt.Sprintf("checkTimeSoD(%s) IS TRUE", role), func(*event.Occurrence) bool {
				_, ok := g.gt.CanDisable(role)
				return ok
			}),
		},
		Then: []core.Action{
			core.Act(fmt.Sprintf("disableRole%s()", role), func(*event.Occurrence) error {
				return g.gt.DisableRole(role)
			}),
			allow(tsodName),
		},
		Else: []core.Action{g.deny(tsodName, "Denied as Partner Role Already Disabled")},
	}); err != nil {
		return err
	}

	// --- Context rule: revoke activations when the environment moves
	// away from a requirement (the paper's "when a user moves from one
	// location to another, external events can trigger rules that
	// activate/deactivate roles").
	if len(ctxReqs) > 0 {
		reqs := ctxReqs
		ctxName := fmt.Sprintf("CTX.%s", role)
		if err := pool.Add(core.Rule{
			Name: ctxName, On: EvContextUpdate,
			Class: core.ActiveSecurity, Granularity: core.Localized,
			Tags: []string{tag},
			When: []core.Condition{
				core.BoolCond(fmt.Sprintf("contextViolated(%s)", role), func(o *event.Occurrence) bool {
					key, _ := o.Params["key"].(string)
					for _, c := range reqs {
						if c.Key == key && !g.eng.Env().Match(c.Key, c.Value) {
							return true
						}
					}
					return false
				}),
			},
			Then: []core.Action{
				core.Act(fmt.Sprintf("deactivate %s everywhere", role), func(o *event.Occurrence) error {
					for _, sid := range st.SessionsWithRole(role) {
						user, err := st.SessionUser(sid)
						if err != nil {
							continue
						}
						if err := st.RawDropSessionRole(sid, role); err != nil {
							continue
						}
						_ = det.RaiseFrom(o, gtrbac.EvSessionRoleDropped, event.Params{
							"user": string(user), "session": string(sid),
							"role": string(role), "reason": "context-changed",
						})
					}
					return nil
				}),
			},
		}); err != nil {
			return err
		}
	}

	// --- Periodic shift ------------------------------------------------
	for _, sh := range g.spec.Shifts {
		if sh.Role != string(role) {
			continue
		}
		id, err := g.gt.SchedulePeriodic(role, sh.Window())
		if err != nil {
			return err
		}
		g.schedules[role] = id
	}
	return nil
}

// generateSpecializedRules emits per-user rules — the paper's scenario 1
// ("user Jane should be restricted to a maximum of five active roles").
// The bound is enforced like the cardinality rule: triggered by the
// session lifecycle event, rolling the activation back when the budget
// is exceeded.
func (g *Generator) generateSpecializedRules(spec *policy.Spec) error {
	pool := g.eng.Pool()
	st := g.eng.Store()
	det := g.eng.Detector()
	for _, m := range spec.MaxRoles {
		m := m
		user := rbac.UserID(m.User)
		name := fmt.Sprintf("SPEC.maxroles.%s", m.User)
		if err := pool.Add(core.Rule{
			Name: name, On: gtrbac.EvSessionRoleAdded,
			Class: core.ActivityControl, Granularity: core.Specialized,
			Tags: []string{TagUser(user)},
			When: []core.Condition{
				core.BoolCond(fmt.Sprintf("user != %s OR activeRoles <= %d", m.User, m.N), func(o *event.Occurrence) bool {
					if userOf(o) != user {
						return true
					}
					roles, err := st.SessionRoles(sessionOf(o))
					return err == nil && len(roles) <= m.N
				}),
			},
			Else: []core.Action{
				core.Act("removeSessionRole(sessionId)", func(o *event.Occurrence) error {
					role := roleParam(o)
					_ = st.RawDropSessionRole(sessionOf(o), role)
					p := o.Params.Clone()
					p["reason"] = "maxroles-rollback"
					return det.RaiseFrom(o, gtrbac.EvSessionRoleDropped, p)
				}),
				g.deny(name, "Maximum Number of Active Roles Reached"),
			},
		}); err != nil {
			return err
		}
	}
	return nil
}

func roleParam(o *event.Occurrence) rbac.RoleID {
	s, _ := o.Params["role"].(string)
	return rbac.RoleID(s)
}
