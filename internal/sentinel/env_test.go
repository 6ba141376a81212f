package sentinel

import "testing"

func TestEnvSetGetMatch(t *testing.T) {
	env := NewEnv()
	if _, ok := env.Get("location"); ok {
		t.Fatal("unset key present")
	}
	if env.Match("location", "ward") {
		t.Fatal("unset key matched (must fail closed)")
	}
	if prev := env.Set("location", "ward"); prev != "" {
		t.Fatalf("prev = %q", prev)
	}
	if v, ok := env.Get("location"); !ok || v != "ward" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if !env.Match("location", "ward") || env.Match("location", "lobby") {
		t.Fatal("Match wrong")
	}
	if prev := env.Set("location", "lobby"); prev != "ward" {
		t.Fatalf("prev = %q", prev)
	}
	// Empty wanted value never matches, even if stored.
	env.Set("flag", "")
	if env.Match("flag", "") {
		t.Fatal("empty value matched")
	}
}

func TestEngineEnvAndClock(t *testing.T) {
	e, sim := newEngine()
	if e.Env() == nil {
		t.Fatal("nil Env")
	}
	if e.Clock() != sim {
		t.Fatal("Clock accessor wrong")
	}
	e.Env().Set("k", "v")
	if v, _ := e.Env().Get("k"); v != "v" {
		t.Fatal("engine env not shared")
	}
}

func TestDecisionResult(t *testing.T) {
	d := &Decision{}
	if d.Result() != nil {
		t.Fatal("zero Decision has a result")
	}
	d.SetResult("s42")
	if d.Result() != "s42" {
		t.Fatalf("Result = %v", d.Result())
	}
	d.Allow("r")
	if d.String() != "ALLOW" {
		t.Fatalf("String = %q", d.String())
	}
	d.Deny("r2", "nope")
	if s := d.String(); s != "DENY (nope)" {
		t.Fatalf("String = %q", s)
	}
}
