package rulegen

import (
	"fmt"

	"activerbac/internal/cfd"
	"activerbac/internal/core"
	"activerbac/internal/event"
	"activerbac/internal/gtrbac"
	"activerbac/internal/parbac"
	"activerbac/internal/policy"
	"activerbac/internal/rbac"
	"activerbac/internal/security"
	"activerbac/internal/sentinel"
)

// Generator compiles policy specifications into a live Sentinel+ engine:
// RBAC state into the store, OWTE rules into the pool, temporal
// schedules into the GTRBAC manager, CFD constraints, privacy bindings
// and active-security thresholds. One Generator owns one engine.
type Generator struct {
	eng *sentinel.Engine
	gt  *gtrbac.Manager
	cf  *cfd.Manager
	pa  *parbac.Manager
	mon *security.Monitor

	spec      *policy.Spec
	graph     *policy.Graph
	schedules map[rbac.RoleID]int // role -> gtrbac schedule id
	loaded    bool

	reportPlumbing
}

// New wires a Generator (and the constraint managers it drives) onto an
// engine and registers the active-security responses.
func New(eng *sentinel.Engine) (*Generator, error) {
	gt, err := gtrbac.New(eng.Detector(), eng.Store())
	if err != nil {
		return nil, err
	}
	cf, err := cfd.New(eng.Detector(), eng.Store(), gt)
	if err != nil {
		return nil, err
	}
	g := &Generator{
		eng:       eng,
		gt:        gt,
		cf:        cf,
		pa:        parbac.New(eng.Store()),
		mon:       security.NewMonitor(eng.Clock()),
		schedules: make(map[rbac.RoleID]int),
	}
	// The paper's predefined security-administrator actions.
	g.mon.RegisterResponse("lock-user", func(a security.Alert) {
		_ = eng.Store().SetUserLocked(rbac.UserID(a.Subject), true)
	})
	g.mon.RegisterResponse("disable-rules", func(security.Alert) {
		eng.Pool().SetEnabledByTag(TagCritical, false)
	})
	// "alert" needs no response beyond the alert listeners.
	return g, nil
}

// Engine returns the generator's engine.
func (g *Generator) Engine() *sentinel.Engine { return g.eng }

// Temporal returns the GTRBAC manager.
func (g *Generator) Temporal() *gtrbac.Manager { return g.gt }

// CFD returns the control-flow-dependency manager.
func (g *Generator) CFD() *cfd.Manager { return g.cf }

// Privacy returns the privacy-aware RBAC manager.
func (g *Generator) Privacy() *parbac.Manager { return g.pa }

// Security returns the active-security monitor.
func (g *Generator) Security() *security.Monitor { return g.mon }

// Spec returns the currently loaded policy spec (nil before Load).
func (g *Generator) Spec() *policy.Spec { return g.spec }

// Graph returns the instantiated access specification graph.
func (g *Generator) Graph() *policy.Graph { return g.graph }

// Load performs full generation of a policy into the engine. It may
// only be called once; use Apply for subsequent policy changes.
func (g *Generator) Load(spec *policy.Spec) error {
	if g.loaded {
		return fmt.Errorf("rulegen: engine already loaded; use Apply for policy changes")
	}
	if issues := policy.Check(spec); policy.HasErrors(issues) {
		return fmt.Errorf("rulegen: policy has errors: %v", issues)
	}
	graph, err := policy.BuildGraph(spec)
	if err != nil {
		return err
	}
	g.spec, g.graph = spec, graph

	// One policy transaction: the access view is published once, when
	// the load is complete.
	if err := g.eng.Store().Update(func(tx *rbac.Tx) error {
		if err := g.applyGlobalState(tx, spec); err != nil {
			return err
		}
		if err := g.generateGlobalRules(); err != nil {
			return err
		}
		for _, role := range spec.Roles {
			if err := g.generateRole(rbac.RoleID(role)); err != nil {
				return err
			}
		}
		if err := g.applyUserState(tx, spec); err != nil {
			return err
		}
		if err := g.generateSpecializedRules(spec); err != nil {
			return err
		}
		return g.applyReports(spec)
	}); err != nil {
		return err
	}
	g.loaded = true
	return nil
}

// ---------------------------------------------------------------------------
// State application

// applyGlobalState installs roles, hierarchy, SoD sets, permissions,
// purposes, CFD constraints, time SoDs and thresholds.
func (g *Generator) applyGlobalState(tx *rbac.Tx, spec *policy.Spec) error {
	for _, r := range spec.Roles {
		if err := tx.AddRole(rbac.RoleID(r)); err != nil {
			return err
		}
		if err := g.gt.RegisterRole(rbac.RoleID(r)); err != nil {
			return err
		}
	}
	for _, e := range spec.Hierarchy {
		if err := tx.AddInheritance(rbac.RoleID(e.Senior), rbac.RoleID(e.Junior)); err != nil {
			return err
		}
	}
	for _, set := range spec.SSD {
		if err := tx.CreateSSD(toSoDSet(set)); err != nil {
			return err
		}
	}
	for _, set := range spec.DSD {
		if err := tx.CreateDSD(toSoDSet(set)); err != nil {
			return err
		}
	}
	for _, p := range spec.Permissions {
		if err := tx.GrantPermission(rbac.RoleID(p.Role), rbac.Permission{Operation: p.Operation, Object: p.Object}); err != nil {
			return err
		}
	}
	for _, c := range spec.Cardinalities {
		if err := tx.SetRoleCardinality(rbac.RoleID(c.Role), c.N); err != nil {
			return err
		}
	}
	for _, ts := range spec.TimeSoDs {
		roles := make([]rbac.RoleID, len(ts.Roles))
		for i, r := range ts.Roles {
			roles[i] = rbac.RoleID(r)
		}
		if err := g.gt.AddDisablingTimeSoD(ts.Name, roles, ts.Window()); err != nil {
			return err
		}
	}
	for _, c := range spec.Couples {
		if err := g.cf.CoupleEnable(rbac.RoleID(c.Lead), rbac.RoleID(c.Follow)); err != nil {
			return err
		}
	}
	for _, rq := range spec.Requires {
		if err := g.cf.AddActivationDependency(rbac.RoleID(rq.Dependent), rbac.RoleID(rq.Required)); err != nil {
			return err
		}
	}
	for _, p := range spec.Prereqs {
		if err := g.cf.AddPrerequisite(rbac.RoleID(p.Role), rbac.RoleID(p.Prereq)); err != nil {
			return err
		}
	}
	for _, p := range spec.Purposes {
		if err := g.pa.AddPurpose(p.Name, p.Parent); err != nil {
			return err
		}
	}
	for _, b := range spec.Bindings {
		perm := rbac.Permission{Operation: b.Operation, Object: b.Object}
		if err := g.pa.BindPurpose(rbac.RoleID(b.Role), perm, b.Purpose); err != nil {
			return err
		}
	}
	for _, obj := range spec.ConsentRequired {
		g.pa.SetConsentRequired(obj, true)
	}
	for _, th := range spec.Thresholds {
		if err := g.mon.AddThreshold(th.Name, th.Count, th.Window, th.Action); err != nil {
			return err
		}
	}
	return nil
}

// applyUserState installs users and assignments (after roles exist).
func (g *Generator) applyUserState(tx *rbac.Tx, spec *policy.Spec) error {
	for _, u := range spec.Users {
		if err := tx.AddUser(rbac.UserID(u.Name)); err != nil {
			return err
		}
		for _, r := range u.Roles {
			if err := tx.AssignUser(rbac.UserID(u.Name), rbac.RoleID(r)); err != nil {
				return err
			}
		}
	}
	for _, m := range spec.MaxRoles {
		// The checker warns on undeclared users; create on demand so
		// warning-level policies still load.
		if !tx.UserExists(rbac.UserID(m.User)) {
			if err := tx.AddUser(rbac.UserID(m.User)); err != nil {
				return err
			}
		}
		if err := tx.SetUserMaxActiveRoles(rbac.UserID(m.User), m.N); err != nil {
			return err
		}
	}
	for _, d := range spec.Durations {
		u := rbac.UserID(d.User)
		if d.User == "*" {
			u = ""
		}
		if err := g.gt.SetActivationDuration(u, rbac.RoleID(d.Role), d.D); err != nil {
			return err
		}
	}
	return nil
}

func toSoDSet(s policy.SoD) rbac.SoDSet {
	roles := make([]rbac.RoleID, len(s.Roles))
	for i, r := range s.Roles {
		roles[i] = rbac.RoleID(r)
	}
	return rbac.SoDSet{Name: s.Name, Roles: roles, N: s.N}
}

// ---------------------------------------------------------------------------
// Parameter helpers

func userOf(o *event.Occurrence) rbac.UserID {
	s, _ := o.Params["user"].(string)
	return rbac.UserID(s)
}

func sessionOf(o *event.Occurrence) rbac.SessionID {
	s, _ := o.Params["session"].(string)
	return rbac.SessionID(s)
}

func permOf(o *event.Occurrence) rbac.Permission {
	op, _ := o.Params["operation"].(string)
	obj, _ := o.Params["object"].(string)
	return rbac.Permission{Operation: op, Object: obj}
}

// vote helpers

func allow(name string) core.Action {
	return core.Act("allow <"+name+">", func(o *event.Occurrence) error {
		if dec, ok := sentinel.DecisionOf(o); ok {
			dec.Allow(name)
		}
		return nil
	})
}

// deny votes Deny and records the denial with the security monitor (the
// paper's active security observes denied requests).
func (g *Generator) deny(name, reason string) core.Action {
	return core.Act("raise error \""+reason+"\"", func(o *event.Occurrence) error {
		if dec, ok := sentinel.DecisionOf(o); ok {
			dec.Deny(name, reason)
		}
		g.mon.RecordDenial(string(userOf(o)))
		return nil
	})
}
