package rulegen

import (
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

	reportPlumbing
}

// New wires a Generator (and the constraint managers it drives) onto an
// engine, registers the active-security responses and emits the global
// rules. The Generator starts from the empty policy: generating a
// policy is Apply from there.
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

	g.spec = &policy.Spec{}
	if g.graph, err = policy.BuildGraph(g.spec); err != nil {
		return nil, err
	}
	if err := g.generateGlobalRules(); err != nil {
		return nil, err
	}
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

// Spec returns the current policy spec (the empty policy before the
// first Apply).
func (g *Generator) Spec() *policy.Spec { return g.spec }

// Graph returns the instantiated access specification graph.
func (g *Generator) Graph() *policy.Graph { return g.graph }

// Load is Apply from the empty policy a new Generator starts with.
func (g *Generator) Load(spec *policy.Spec) error {
	_, err := g.Apply(spec)
	return err
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
