// Package conformance executes the paper's Section 6 comparison claims
// as code (experiment E9): each Feature in the matrix is a miniature
// scenario run against a freshly built engine, verifying that this
// implementation supports the capabilities the paper says contemporary
// systems (OASIS, Adage, X-GTRBAC, TRBAC, RB-RBAC) lacked.
//
// TestMatrix requires every feature of Matrix() to pass; `go test -v`
// prints the rows as the paper-style comparison table.
package conformance

import (
	"errors"
	"fmt"
	"time"

	"activerbac"
	"activerbac/internal/clock"
)

// Feature is one row of the comparison matrix.
type Feature struct {
	// Name is the capability, phrased as in the paper's Section 6.
	Name string
	// MissingIn names the related systems the paper says lack it.
	MissingIn string
	// Supported reports whether the scenario passed.
	Supported bool
	// Detail explains a failure (empty on success).
	Detail string
}

var epoch = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

// scenario builds a system from policy source and runs a check.
type scenario struct {
	name      string
	missingIn string
	policy    string
	run       func(sys *activerbac.System, sim *clock.Sim) error
}

// Matrix executes every conformance scenario and returns the matrix.
func Matrix() []Feature {
	out := make([]Feature, 0, len(scenarios))
	for _, sc := range scenarios {
		f := Feature{Name: sc.name, MissingIn: sc.missingIn, Supported: true}
		sim := clock.NewSim(epoch)
		sys, err := activerbac.Open(sc.policy, &activerbac.Options{Clock: sim})
		if err != nil {
			f.Supported = false
			f.Detail = "open: " + err.Error()
			out = append(out, f)
			continue
		}
		if err := sc.run(sys, sim); err != nil {
			f.Supported = false
			f.Detail = err.Error()
		}
		sys.Close()
		out = append(out, f)
	}
	return out
}

var scenarios = []scenario{
	{
		name:      "role hierarchies (senior inherits junior permissions)",
		missingIn: "OASIS, Adage",
		policy: `
role Senior
role Junior
hierarchy Senior > Junior
permission Junior: read doc
user u: Senior
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			sid, err := sys.CreateSession("u")
			if err != nil {
				return err
			}
			if err := sys.AddActiveRole("u", sid, "Senior"); err != nil {
				return err
			}
			if !sys.CheckAccess(sid, activerbac.Permission{Operation: "read", Object: "doc"}) {
				return errors.New("senior did not inherit junior permission")
			}
			return nil
		},
	},
	{
		name:      "cardinality constraints (max concurrent activations)",
		missingIn: "OASIS, Adage",
		policy: `
role President
user a: President
user b: President
cardinality President 1
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			sa, err := sys.CreateSession("a")
			if err != nil {
				return err
			}
			sb, err := sys.CreateSession("b")
			if err != nil {
				return err
			}
			if err := sys.AddActiveRole("a", sa, "President"); err != nil {
				return err
			}
			if err := sys.AddActiveRole("b", sb, "President"); err == nil {
				return errors.New("second activation allowed beyond cardinality")
			}
			return nil
		},
	},
	{
		name:      "static separation of duty with hierarchies",
		missingIn: "OASIS (no SoD+hierarchy combination)",
		policy: `
role PM
role PC
role AC
hierarchy PM > PC
ssd pa 2: PC, AC
user alice: PM
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			if err := sys.AssignUser("alice", "AC"); err == nil {
				return errors.New("inherited SSD conflict not enforced")
			}
			return nil
		},
	},
	{
		name:      "dynamic separation of duty at activation time",
		missingIn: "Adage (history-based only)",
		policy: `
role Teller
role Auditor
dsd bank 2: Teller, Auditor
user eve: Teller, Auditor
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			sid, err := sys.CreateSession("eve")
			if err != nil {
				return err
			}
			if err := sys.AddActiveRole("eve", sid, "Teller"); err != nil {
				return err
			}
			if err := sys.AddActiveRole("eve", sid, "Auditor"); err == nil {
				return errors.New("DSD violation allowed")
			}
			return nil
		},
	},
	{
		name:      "time-based separation of duty (disabling-time SoD)",
		missingIn: "X-GTRBAC",
		policy: `
role Nurse
role Doctor
timesod ward 00:00:00-23:59:59: Nurse, Doctor
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			if err := sys.DisableRole("Doctor"); err != nil {
				return err
			}
			if err := sys.DisableRole("Nurse"); err == nil {
				return errors.New("both ward roles disabled inside window")
			}
			return nil
		},
	},
	{
		name:      "periodic role enabling (GTRBAC shifts)",
		missingIn: "Adage, RB-RBAC",
		policy: `
role DayDoctor
user d: DayDoctor
shift DayDoctor 10:00:00-17:00:00
`,
		run: func(sys *activerbac.System, sim *clock.Sim) error {
			sid, err := sys.CreateSession("d")
			if err != nil {
				return err
			}
			if err := sys.AddActiveRole("d", sid, "DayDoctor"); err == nil {
				return errors.New("activation allowed outside shift")
			}
			sim.AdvanceTo(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC))
			if err := sys.AddActiveRole("d", sid, "DayDoctor"); err != nil {
				return fmt.Errorf("activation inside shift denied: %w", err)
			}
			return nil
		},
	},
	{
		name:      "per-activation duration bounds (Rule 7)",
		missingIn: "OASIS (minimal temporal constraints)",
		policy: `
role R
user u: R
duration * R 2h
`,
		run: func(sys *activerbac.System, sim *clock.Sim) error {
			sid, err := sys.CreateSession("u")
			if err != nil {
				return err
			}
			if err := sys.AddActiveRole("u", sid, "R"); err != nil {
				return err
			}
			sim.Advance(3 * time.Hour)
			roles, err := sys.SessionRoles(sid)
			if err != nil {
				return err
			}
			if len(roles) != 0 {
				return errors.New("activation survived its duration bound")
			}
			return nil
		},
	},
	{
		name:      "dynamic role deactivation via rules (Rule 9)",
		missingIn: "X-GTRBAC, RB-RBAC",
		policy: `
role Manager
role JuniorEmp
user m: Manager
user j: JuniorEmp
require JuniorEmp needs-active Manager
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			sm, err := sys.CreateSession("m")
			if err != nil {
				return err
			}
			sj, err := sys.CreateSession("j")
			if err != nil {
				return err
			}
			if err := sys.AddActiveRole("m", sm, "Manager"); err != nil {
				return err
			}
			if err := sys.AddActiveRole("j", sj, "JuniorEmp"); err != nil {
				return err
			}
			if err := sys.DropActiveRole("m", sm, "Manager"); err != nil {
				return err
			}
			roles, err := sys.SessionRoles(sj)
			if err != nil {
				return err
			}
			if len(roles) != 0 {
				return errors.New("dependent activation not revoked")
			}
			return nil
		},
	},
	{
		name:      "post-condition control-flow coupling (Rule 8)",
		missingIn: "all surveyed systems",
		policy: `
role SysAdmin
role SysAudit
couple SysAdmin -> SysAudit
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			if err := sys.DisableRole("SysAudit"); err != nil {
				return err
			}
			if sys.RoleEnabled("SysAdmin") {
				return errors.New("lead stayed enabled after follow disabled")
			}
			return nil
		},
	},
	{
		name:      "privacy-aware RBAC (purposes and consent)",
		missingIn: "all surveyed systems",
		policy: `
role Doctor
user d: Doctor
permission Doctor: read chart
purpose treatment
bind Doctor read chart for treatment
consent-required chart
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			sid, err := sys.CreateSession("d")
			if err != nil {
				return err
			}
			if err := sys.AddActiveRole("d", sid, "Doctor"); err != nil {
				return err
			}
			p := activerbac.Permission{Operation: "read", Object: "chart"}
			if sys.CheckAccessForPurpose(sid, p, "treatment") {
				return errors.New("access allowed without consent")
			}
			if err := sys.GrantConsent("chart", "treatment"); err != nil {
				return err
			}
			if !sys.CheckAccessForPurpose(sid, p, "treatment") {
				return errors.New("access denied despite consent")
			}
			return nil
		},
	},
	{
		name:      "active security (autonomous reaction to attacks)",
		missingIn: "Adage, X-GTRBAC, RB-RBAC",
		policy: `
role Staff
user mallory: Staff
threshold burst 3 in 10m: lock-user
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			sid, err := sys.CreateSession("mallory")
			if err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				sys.CheckAccess(sid, activerbac.Permission{Operation: "x", Object: "y"})
			}
			if !sys.UserLocked("mallory") {
				return errors.New("threshold crossing did not lock the user")
			}
			return nil
		},
	},
	{
		name:      "context-aware constraints (location/network gating)",
		missingIn: "Adage, X-GTRBAC, RB-RBAC",
		policy: `
role WardNurse
user n: WardNurse
context WardNurse requires location = ward
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			sid, err := sys.CreateSession("n")
			if err != nil {
				return err
			}
			if err := sys.AddActiveRole("n", sid, "WardNurse"); err == nil {
				return errors.New("activation allowed outside the required context")
			}
			if err := sys.SetContext("location", "ward"); err != nil {
				return err
			}
			if err := sys.AddActiveRole("n", sid, "WardNurse"); err != nil {
				return fmt.Errorf("activation denied inside context: %w", err)
			}
			// Leaving the ward revokes the activation.
			if err := sys.SetContext("location", "lobby"); err != nil {
				return err
			}
			roles, err := sys.SessionRoles(sid)
			if err != nil {
				return err
			}
			if len(roles) != 0 {
				return errors.New("activation survived the context change")
			}
			return nil
		},
	},
	{
		name:      "automatic rule generation from high-level specification",
		missingIn: "Adage, RB-RBAC (manual rules)",
		policy: `
role PM
role PC
hierarchy PM > PC
user u: PM
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			if len(sys.Rules()) < 8 {
				return fmt.Errorf("only %d rules generated", len(sys.Rules()))
			}
			return nil
		},
	},
	{
		name:      "rule regeneration on policy change",
		missingIn: "all surveyed systems (manual low-level edits)",
		policy: `
role A
role B
user u: A
`,
		run: func(sys *activerbac.System, _ *clock.Sim) error {
			rep, err := sys.ApplyPolicy("role A\nrole B\nuser u: A\ncardinality A 1\n")
			if err != nil {
				return err
			}
			if rep.Touched() != 1 {
				return fmt.Errorf("touched %d roles, want 1", rep.Touched())
			}
			return nil
		},
	},
}
