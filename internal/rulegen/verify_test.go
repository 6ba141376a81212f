package rulegen

import (
	"strings"
	"testing"

	"activerbac/internal/clock"
	"activerbac/internal/core"
	"activerbac/internal/sentinel"
)

func TestVerifyCleanAfterLoad(t *testing.T) {
	for _, src := range []string{xyzPolicy, bankPolicy, hospitalPolicy, cfdPolicy, privacyPolicy, securityPolicy, pervasivePolicy, reportPolicy} {
		g, _ := loadPolicy(t, src)
		if errs := g.Verify(); len(errs) != 0 {
			t.Fatalf("Verify after Load of %q: %v", strings.SplitN(src, "\n", 3)[1], errs)
		}
	}
}

func TestVerifyCleanAfterApply(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	apply(t, g, xyzPolicy+"role Intern\nhierarchy Clerk > Intern\ncontext Intern requires badge = valid\n")
	if errs := g.Verify(); len(errs) != 0 {
		t.Fatalf("Verify after Apply: %v", errs)
	}
	apply(t, g, xyzPolicy) // back to base: Intern rules must be gone
	if errs := g.Verify(); len(errs) != 0 {
		t.Fatalf("Verify after revert: %v", errs)
	}
}

// A new Generator holds the empty policy: exactly the 7 global rules,
// which Verify accounts for.
func TestVerifyFreshGenerator(t *testing.T) {
	g, err := New(sentinel.NewEngine(clock.NewSim(t0)))
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Engine().Pool().Len(); n != 7 {
		t.Fatalf("fresh generator holds %d rules, want the 7 global rules", n)
	}
	if errs := g.Verify(); errs != nil {
		t.Fatalf("Verify on a fresh generator: %v", errs)
	}
}

// coreRule builds a minimal rule for tamper tests.
func coreRule(name, on string) core.Rule {
	return core.Rule{Name: name, On: on}
}

func TestVerifyDetectsMissingRule(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	if err := g.Engine().Pool().Remove("AAR2.PC"); err != nil {
		t.Fatal(err)
	}
	errs := g.Verify()
	if len(errs) == 0 {
		t.Fatal("missing rule not detected")
	}
	if !strings.Contains(errs[0].Error(), "AAR2.PC") {
		t.Fatalf("errs = %v", errs)
	}
}

func TestVerifyDetectsForeignRule(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	g.Engine().Pool().MustAdd(coreRule("SNEAKY", EvCheckAccess))
	errs := g.Verify()
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "unexpected rule") && strings.Contains(e.Error(), "SNEAKY") {
			found = true
		}
	}
	if !found {
		t.Fatalf("foreign rule not detected: %v", errs)
	}
}

func TestVerifyDetectsStaleCardinalityRule(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	// PC has no cardinality bound, so a CC1.PC rule is stale.
	g.Engine().Pool().MustAdd(coreRule("CC1.PC", EvRoleActivated("PC")))
	errs := g.Verify()
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "CC1.PC") {
			found = true
		}
	}
	if !found {
		t.Fatalf("stale cardinality rule not detected: %v", errs)
	}
}
