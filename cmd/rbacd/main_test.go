package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"activerbac"
)

const testPolicy = `
policy "enterprise-xyz"
role PM
role PC
role AC
role Clerk
hierarchy PM > PC > Clerk
ssd pa 2: PC, AC
permission PC: write po.dat
permission Clerk: read lobby.txt
user bob: PC
user carol: AC
threshold burst 3 in 10m: lock-user
`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	sys, err := activerbac.Open(testPolicy, &activerbac.Options{
		Clock: activerbac.NewSimClock(time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv := httptest.NewServer((&server{sys: sys}).routes())
	t.Cleanup(srv.Close)
	return srv
}

// call issues a JSON request and decodes the response into out.
func call(t *testing.T, srv *httptest.Server, method, path, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func TestSessionActivateCheckFlow(t *testing.T) {
	srv := newTestServer(t)
	var sess struct {
		Session string `json:"session"`
	}
	if code := call(t, srv, "POST", "/v1/sessions", `{"user":"bob"}`, &sess); code != 200 || sess.Session == "" {
		t.Fatalf("create session: code=%d sess=%+v", code, sess)
	}
	if code := call(t, srv, "POST", "/v1/activate",
		`{"user":"bob","session":"`+sess.Session+`","role":"PC"}`, nil); code != 200 {
		t.Fatalf("activate: code=%d", code)
	}
	var check struct {
		Allowed bool `json:"allowed"`
	}
	call(t, srv, "GET", "/v1/check?session="+sess.Session+"&operation=write&object=po.dat", "", &check)
	if !check.Allowed {
		t.Fatal("write po.dat denied")
	}
	call(t, srv, "GET", "/v1/check?session="+sess.Session+"&operation=read&object=lobby.txt", "", &check)
	if !check.Allowed {
		t.Fatal("inherited read denied")
	}
	call(t, srv, "GET", "/v1/check?session="+sess.Session+"&operation=approve&object=po.dat", "", &check)
	if check.Allowed {
		t.Fatal("unauthorized operation allowed")
	}
	// Explainability: the denial names the rule and reason.
	var ex struct {
		Allowed bool
		Reason  string
		Votes   []struct{ Rule string }
	}
	call(t, srv, "GET", "/v1/check?session="+sess.Session+"&operation=approve&object=po.dat&explain=1", "", &ex)
	if ex.Allowed || ex.Reason != "Permission Denied" || len(ex.Votes) != 1 || ex.Votes[0].Rule != "CA1" {
		t.Fatalf("explanation = %+v", ex)
	}
	if code := call(t, srv, "POST", "/v1/deactivate",
		`{"user":"bob","session":"`+sess.Session+`","role":"PC"}`, nil); code != 200 {
		t.Fatalf("deactivate: code=%d", code)
	}
	if code := call(t, srv, "DELETE", "/v1/sessions",
		`{"session":"`+sess.Session+`"}`, nil); code != 200 {
		t.Fatalf("delete session: code=%d", code)
	}
}

func TestHTTPStatusMapping(t *testing.T) {
	srv := newTestServer(t)
	// Denied activation: 403.
	var sess struct {
		Session string `json:"session"`
	}
	call(t, srv, "POST", "/v1/sessions", `{"user":"bob"}`, &sess)
	if code := call(t, srv, "POST", "/v1/activate",
		`{"user":"bob","session":"`+sess.Session+`","role":"AC"}`, nil); code != http.StatusForbidden {
		t.Fatalf("unauthorized activation: code=%d, want 403", code)
	}
	// Unknown user session: 403 (denied by rule).
	if code := call(t, srv, "POST", "/v1/sessions", `{"user":"ghost"}`, nil); code != http.StatusForbidden {
		t.Fatalf("ghost session: code=%d, want 403", code)
	}
	// SSD assignment: 403.
	if code := call(t, srv, "POST", "/v1/assign", `{"user":"carol","role":"PC"}`, nil); code != http.StatusForbidden {
		t.Fatalf("SSD assignment: code=%d, want 403", code)
	}
	// Duplicate user: 409.
	if code := call(t, srv, "POST", "/v1/users", `{"user":"bob"}`, nil); code != http.StatusConflict {
		t.Fatalf("duplicate user: code=%d, want 409", code)
	}
	// Bad body: 400.
	if code := call(t, srv, "POST", "/v1/activate", `{not json`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad body: code=%d, want 400", code)
	}
}

func TestIntrospectionEndpoints(t *testing.T) {
	srv := newTestServer(t)
	var rules []map[string]any
	if code := call(t, srv, "GET", "/v1/rules", "", &rules); code != 200 || len(rules) == 0 {
		t.Fatalf("rules: code=%d n=%d", code, len(rules))
	}
	var stats map[string]any
	if code := call(t, srv, "GET", "/v1/stats", "", &stats); code != 200 {
		t.Fatalf("stats: code=%d", code)
	}
	if stats["Roles"].(float64) != 4 {
		t.Fatalf("stats = %v", stats)
	}
	var alerts []any
	if code := call(t, srv, "GET", "/v1/alerts", "", &alerts); code != 200 || alerts == nil {
		t.Fatalf("alerts: code=%d %v", code, alerts)
	}
}

// TestStatsReportQueue: /v1/stats carries the engine counters and the
// enforcement drain's queue depth, which is zero once the requests
// above have settled.
func TestStatsReportQueue(t *testing.T) {
	sys, err := activerbac.Open(testPolicy, &activerbac.Options{
		Clock: activerbac.NewSimClock(time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv := httptest.NewServer((&server{sys: sys}).routes())
	t.Cleanup(srv.Close)

	var sess struct {
		Session string `json:"session"`
	}
	call(t, srv, "POST", "/v1/sessions", `{"user":"bob"}`, &sess)
	var check struct {
		Allowed bool `json:"allowed"`
	}
	call(t, srv, "GET", "/v1/check?session="+sess.Session+"&operation=read&object=lobby.txt", "", &check)

	var stats struct {
		Roles      float64
		Detections float64
		Queued     *float64
	}
	if code := call(t, srv, "GET", "/v1/stats", "", &stats); code != 200 {
		t.Fatalf("stats: code=%d", code)
	}
	if stats.Roles != 4 || stats.Detections == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Queued == nil || *stats.Queued != 0 {
		t.Fatalf("stats queue depth = %v, want a reported 0", stats.Queued)
	}
}

// TestGracefulShutdown proves an in-flight decision completes during
// shutdown: a request is held inside the handler while SIGTERM-style
// shutdown begins, then released; the client must still receive the
// correct verdict and serve must return cleanly.
func TestGracefulShutdown(t *testing.T) {
	sys, err := activerbac.Open(testPolicy, &activerbac.Options{
		Clock: activerbac.NewSimClock(time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })

	var sess struct {
		Session string `json:"session"`
	}
	pre := httptest.NewServer((&server{sys: sys}).routes())
	call(t, pre, "POST", "/v1/sessions", `{"user":"bob"}`, &sess)
	call(t, pre, "POST", "/v1/activate", `{"user":"bob","session":"`+sess.Session+`","role":"PC"}`, nil)
	pre.Close()

	inflight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	inner := (&server{sys: sys}).routes()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(inflight) })
		<-release
		inner.ServeHTTP(w, r)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	signals := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() {
		served <- serve(sys, &http.Server{Handler: handler}, nil, ln, signals, "")
	}()

	type verdict struct {
		code int
		body string
	}
	got := make(chan verdict, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() +
			"/v1/check?session=" + sess.Session + "&operation=write&object=po.dat")
		if err != nil {
			got <- verdict{code: -1, body: err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- verdict{code: resp.StatusCode, body: string(b)}
	}()

	<-inflight              // the decision is now in-flight
	signals <- os.Interrupt // begin graceful shutdown
	time.Sleep(50 * time.Millisecond)
	close(release) // let the held handler proceed

	select {
	case v := <-got:
		if v.code != 200 || !strings.Contains(v.body, `"allowed":true`) {
			t.Fatalf("in-flight decision lost: code=%d body=%q", v.code, v.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after shutdown")
	}
}

func TestAssignDeassignAndRoleState(t *testing.T) {
	srv := newTestServer(t)
	if code := call(t, srv, "POST", "/v1/users", `{"user":"dave"}`, nil); code != 200 {
		t.Fatalf("add user: %d", code)
	}
	if code := call(t, srv, "POST", "/v1/assign", `{"user":"dave","role":"Clerk"}`, nil); code != 200 {
		t.Fatalf("assign: %d", code)
	}
	if code := call(t, srv, "POST", "/v1/deassign", `{"user":"dave","role":"Clerk"}`, nil); code != 200 {
		t.Fatalf("deassign: %d", code)
	}
	if code := call(t, srv, "POST", "/v1/roles/disable", `{"role":"PC"}`, nil); code != 200 {
		t.Fatalf("disable: %d", code)
	}
	if code := call(t, srv, "POST", "/v1/roles/enable", `{"role":"PC"}`, nil); code != 200 {
		t.Fatalf("enable: %d", code)
	}
}

func TestPolicyEndpoints(t *testing.T) {
	srv := newTestServer(t)
	// GET returns the loaded source.
	resp, err := http.Get(srv.URL + "/v1/policy")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "enterprise-xyz") {
		t.Fatalf("policy body: %q", body)
	}

	// POST applies a change and returns the regeneration report.
	edited := strings.Replace(testPolicy, "permission PC: write po.dat",
		"permission PC: write po.dat\ncardinality PC 3", 1)
	req, _ := http.NewRequest("POST", srv.URL+"/v1/policy", strings.NewReader(edited))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var rep struct {
		RolesRegenerated []string
	}
	if err := json.NewDecoder(resp2.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != 200 || len(rep.RolesRegenerated) != 1 || rep.RolesRegenerated[0] != "PC" {
		t.Fatalf("apply: code=%d report=%+v", resp2.StatusCode, rep)
	}

	// A broken policy is rejected with 422 and the engine keeps serving.
	req2, _ := http.NewRequest("POST", srv.URL+"/v1/policy", strings.NewReader("role A\nrole A"))
	resp3, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad policy: code=%d, want 422", resp3.StatusCode)
	}
	var stats map[string]any
	if code := call(t, srv, "GET", "/v1/stats", "", &stats); code != 200 {
		t.Fatalf("stats after bad policy: %d", code)
	}
}

func TestContextAndVerifyEndpoints(t *testing.T) {
	srv := newTestServer(t)
	if code := call(t, srv, "POST", "/v1/context", `{"key":"site","value":"hq"}`, nil); code != 200 {
		t.Fatalf("set context: %d", code)
	}
	var got struct {
		Key   string `json:"key"`
		Value string `json:"value"`
		Set   bool   `json:"set"`
	}
	if code := call(t, srv, "GET", "/v1/context?key=site", "", &got); code != 200 || !got.Set || got.Value != "hq" {
		t.Fatalf("get context: code=%d got=%+v", code, got)
	}
	if code := call(t, srv, "GET", "/v1/context?key=unset", "", &got); code != 200 || got.Set {
		t.Fatalf("unset key: code=%d got=%+v", code, got)
	}
	if code := call(t, srv, "GET", "/v1/context", "", nil); code != http.StatusBadRequest {
		t.Fatalf("missing key: %d", code)
	}
	if code := call(t, srv, "POST", "/v1/context", `{}`, nil); code != http.StatusBadRequest {
		t.Fatalf("empty key: %d", code)
	}
	var ver struct {
		OK       bool     `json:"ok"`
		Problems []string `json:"problems"`
	}
	if code := call(t, srv, "GET", "/v1/verify", "", &ver); code != 200 || !ver.OK {
		t.Fatalf("verify: code=%d %+v", code, ver)
	}
}

// violatingPolicyPath is the seeded-unsafe example: one user authorized
// for both members of a DSoD set, exploitable only across sessions.
const violatingPolicyPath = "../../examples/policies/sod-violating.acp"

// TestVerifyStrictRefusesSeededPolicy: rbacd started on the seeded
// SoD-violating example with -verify=strict must refuse to come up,
// before any listener opens.
func TestVerifyStrictRefusesSeededPolicy(t *testing.T) {
	err := run(config{
		policyPath:  violatingPolicyPath,
		addr:        "127.0.0.1:0",
		analyzeMode: "off",
		verifyMode:  "strict",
	})
	if err == nil {
		t.Fatal("strict verify gate accepted the seeded SoD-violating policy")
	}
	if !strings.Contains(err.Error(), "verification") {
		t.Fatalf("startup error should blame verification, got: %v", err)
	}
}

// TestVerifyWarnServesCounterexample: in warn mode the server comes up
// degraded and serves the finding with its replayable counterexample at
// GET /v1/verify.
func TestVerifyWarnServesCounterexample(t *testing.T) {
	src, err := os.ReadFile(violatingPolicyPath)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := activerbac.Open(string(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	res, err := sys.Verify(activerbac.VerifyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := &server{sys: sys, analyzeMode: "off", verifyMode: "warn", verifyRes: res}
	srv.verifyErrors.Store(activerbac.HasVerifyErrors(res.Findings))
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	var ver struct {
		OK       bool   `json:"ok"`
		Mode     string `json:"mode"`
		States   int    `json:"states"`
		Findings []struct {
			Code           string `json:"code"`
			Severity       string `json:"severity"`
			Counterexample *struct {
				Steps []struct {
					Op      string `json:"op"`
					Session string `json:"session"`
					Role    string `json:"role"`
				} `json:"steps"`
			} `json:"counterexample"`
		} `json:"findings"`
	}
	if code := call(t, ts, "GET", "/v1/verify", "", &ver); code != 200 {
		t.Fatalf("verify: code=%d", code)
	}
	if ver.OK || ver.Mode != "warn" || ver.States == 0 {
		t.Fatalf("verify payload: %+v", ver)
	}
	var found bool
	for _, f := range ver.Findings {
		if f.Code != "RV101" {
			continue
		}
		found = true
		if f.Severity != "error" {
			t.Fatalf("RV101 severity = %q", f.Severity)
		}
		if f.Counterexample == nil || len(f.Counterexample.Steps) < 4 {
			t.Fatalf("RV101 counterexample missing or too short: %+v", f.Counterexample)
		}
		steps := f.Counterexample.Steps
		if steps[0].Op != "session" || steps[len(steps)-1].Op != "activate" {
			t.Fatalf("unexpected counterexample shape: %+v", steps)
		}
		// The bypass needs two distinct sessions.
		if steps[len(steps)-1].Session == steps[len(steps)-2].Session {
			t.Fatalf("counterexample does not split across sessions: %+v", steps)
		}
	}
	if !found {
		t.Fatalf("no RV101 finding served: %+v", ver.Findings)
	}

	// The degradation shows up on /readyz.
	var ready struct {
		Ready    bool     `json:"ready"`
		Problems []string `json:"problems"`
	}
	if code := call(t, ts, "GET", "/readyz", "", &ready); code != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("readyz: code=%d %+v", code, ready)
	}
}

// TestVerifyStrictHotReloadRejected: a strict server vets an incoming
// policy on scratch engines and rejects a reachable violation with 422,
// keeping the live policy untouched.
func TestVerifyStrictHotReloadRejected(t *testing.T) {
	sys, err := activerbac.Open(testPolicy, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv := &server{sys: sys, analyzeMode: "off", verifyMode: "strict"}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	src, err := os.ReadFile(violatingPolicyPath)
	if err != nil {
		t.Fatal(err)
	}
	var rej struct {
		Error    string            `json:"error"`
		Findings []json.RawMessage `json:"findings"`
	}
	if code := call(t, ts, "POST", "/v1/policy", string(src), &rej); code != http.StatusUnprocessableEntity {
		t.Fatalf("hot reload of violating policy: code=%d, want 422", code)
	}
	if rej.Error == "" || len(rej.Findings) == 0 {
		t.Fatalf("rejection payload: %+v", rej)
	}
	// Live policy is untouched.
	resp, err := http.Get(ts.URL + "/v1/policy")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "enterprise-xyz") {
		t.Fatalf("live policy changed after rejected reload: %q", body)
	}
}

// TestVerifyStrictReplicaSyncRejected: a strict replica runs a synced
// policy through the gate a hot reload passes and refuses to install a
// reachable violation, keeping its live policy.
func TestVerifyStrictReplicaSyncRejected(t *testing.T) {
	src, err := os.ReadFile(violatingPolicyPath)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := activerbac.Open(string(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	_, data, err := leader.ExportSyncSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A replica boots on the empty policy, as run() starts it.
	sys, err := activerbac.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv := &server{sys: sys, analyzeMode: "off", verifyMode: "strict", replica: true}
	err = replicaApplier{srv}.Apply(data)
	if err == nil || !strings.Contains(err.Error(), "verification") {
		t.Fatalf("strict replica sync of the violating policy: err = %v, want a verification rejection", err)
	}
	if got := sys.PolicySource(); got != "" {
		t.Fatalf("live policy changed after rejected sync: %q", got)
	}
}

func TestActiveSecurityOverHTTP(t *testing.T) {
	srv := newTestServer(t)
	var sess struct {
		Session string `json:"session"`
	}
	call(t, srv, "POST", "/v1/sessions", `{"user":"bob"}`, &sess)
	var check struct {
		Allowed bool `json:"allowed"`
	}
	for i := 0; i < 3; i++ {
		call(t, srv, "GET", "/v1/check?session="+sess.Session+"&operation=steal&object=secrets", "", &check)
	}
	var alerts []map[string]any
	call(t, srv, "GET", "/v1/alerts", "", &alerts)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v", alerts)
	}
	// The locked user cannot open a new session: 403.
	if code := call(t, srv, "POST", "/v1/sessions", `{"user":"bob"}`, nil); code != http.StatusForbidden {
		t.Fatalf("locked session creation: code=%d, want 403", code)
	}
}

// TestShippedDefaultsAreMeasured: rbacd given only -policy opens the
// System exactly as the end-to-end benchmark's deployment line does, so
// the configuration that ships is the one that is measured. The line
// is a copy of the benchmark's, kept here on purpose: a change on
// either side must be made on both.
func TestShippedDefaultsAreMeasured(t *testing.T) {
	deployment := []string{
		"-fastpath", "on", "-trace-sample", "0.01", "-trace-rate-limit", "100",
		"-analyze", "warn", "-verify", "off", "-lanes", "0",
	}
	parse := func(args ...string) config {
		var cfg config
		if err := newFlagSet(&cfg).Parse(append([]string{"-policy", "p.acp"}, args...)); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	shipped, measured := parse(), parse(deployment...)
	if got, want := *shipped.options(), *measured.options(); got != want {
		t.Errorf("shipped options %+v, measured %+v", got, want)
	}
	if shipped != measured {
		t.Errorf("shipped config %+v, measured %+v", shipped, measured)
	}
}

// TestPutPolicyRejectsOversizedBody: a policy body past the 8 MiB cap
// is refused whole with 413. Applying the prefix that fits would drop
// the tail's statements — here a role and its permission, but an ssd
// or dsd line would be lost the same way.
func TestPutPolicyRejectsOversizedBody(t *testing.T) {
	srv := newTestServer(t)
	comment := "#" + strings.Repeat("x", 126) + "\n"
	var b strings.Builder
	b.WriteString(testPolicy)
	for b.Len() <= maxPolicyBody {
		b.WriteString(comment)
	}
	b.WriteString("role Tail\npermission Tail: read secret\n")
	var rej struct {
		Error string `json:"error"`
	}
	if code := call(t, srv, "POST", "/v1/policy", b.String(), &rej); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized policy: %d, want 413", code)
	}
	if !strings.Contains(rej.Error, "exceeds") {
		t.Errorf("413 body error %q does not name the cap", rej.Error)
	}
	resp, err := http.Get(srv.URL + "/v1/policy")
	if err != nil {
		t.Fatal(err)
	}
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(live) != testPolicy {
		t.Errorf("live policy changed by a refused body: %d bytes, want the %d-byte original", len(live), len(testPolicy))
	}
}
