package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"activerbac"
)

// newObsServer builds a test server with metrics and tracing enabled,
// the way rbacd's run() opens the system.
func newObsServer(t *testing.T) *httptest.Server {
	t.Helper()
	sys, err := activerbac.Open(testPolicy, &activerbac.Options{
		Clock:       activerbac.NewSimClock(time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)),
		Metrics:     true,
		TraceBuffer: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv := httptest.NewServer((&server{sys: sys}).routes())
	t.Cleanup(srv.Close)
	return srv
}

// driveTraffic produces a session, an activation and a few checks so
// metrics and traces have content.
func driveTraffic(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	var sess struct {
		Session string `json:"session"`
	}
	if code := call(t, srv, "POST", "/v1/sessions", `{"user":"bob"}`, &sess); code != 200 {
		t.Fatalf("create session: %d", code)
	}
	call(t, srv, "POST", "/v1/activate", `{"user":"bob","session":"`+sess.Session+`","role":"PC"}`, nil)
	var check struct {
		Allowed bool `json:"allowed"`
	}
	call(t, srv, "GET", "/v1/check?session="+sess.Session+"&operation=write&object=po.dat", "", &check)
	call(t, srv, "GET", "/v1/check?session="+sess.Session+"&operation=steal&object=secrets", "", &check)
	return sess.Session
}

// Prometheus text exposition format 0.0.4, the subset the registry
// emits: HELP/TYPE headers followed by samples of that family.
var (
	promHelpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[+-]?Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)
)

// parseProm validates body as Prometheus text format and returns the
// set of family names and a map from full sample line prefix to value.
func parseProm(t *testing.T, body string) (families map[string]string, samples map[string]float64) {
	t.Helper()
	families = make(map[string]string)
	samples = make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	current := ""
	sawHelp := false
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !promHelpRe.MatchString(line) {
				t.Fatalf("bad HELP line: %q", line)
			}
			sawHelp = true
		case strings.HasPrefix(line, "# TYPE "):
			m := promTypeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("bad TYPE line: %q", line)
			}
			if !sawHelp {
				t.Fatalf("TYPE before HELP: %q", line)
			}
			if _, dup := families[m[1]]; dup {
				t.Fatalf("family %s declared twice", m[1])
			}
			current = m[1]
			families[m[1]] = m[2]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line: %q", line)
		default:
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("bad sample line: %q", line)
			}
			// A sample's metric name must extend the family under whose
			// headers it appears (histograms add _bucket/_sum/_count).
			if current == "" || !strings.HasPrefix(m[1], current) {
				t.Fatalf("sample %q outside its family block (current %q)", line, current)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil && !strings.Contains(m[3], "Inf") && m[3] != "NaN" {
				t.Fatalf("bad sample value in %q: %v", line, err)
			}
			samples[m[1]+m[2]] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families, samples
}

func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	srv := newObsServer(t)
	driveTraffic(t, srv)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, samples := parseProm(t, string(body))

	// The documented metric catalog is present with the right types.
	want := map[string]string{
		"activerbac_decision_seconds":       "histogram",
		"activerbac_decisions_total":        "counter",
		"activerbac_traces_total":           "counter",
		"activerbac_lane_wait_seconds":      "histogram",
		"activerbac_operator_matches_total": "counter",
		"activerbac_events_raised_total":    "counter",
		"activerbac_events_detected_total":  "counter",
		"activerbac_rule_fired_total":       "counter",
		"activerbac_rule_allowed_total":     "counter",
		"activerbac_rule_denied_total":      "counter",
		"activerbac_rules":                  "gauge",
		"activerbac_users":                  "gauge",
		"activerbac_roles":                  "gauge",
		"activerbac_sessions":               "gauge",
		"activerbac_security_denials_total": "counter",
		"activerbac_security_alerts_total":  "counter",
		"activerbac_audit_append_seconds":   "histogram",
		"activerbac_audit_flush_seconds":    "histogram",
		"activerbac_audit_records_total":    "counter",

		"activerbac_fastpath_hits_total":          "counter",
		"activerbac_fastpath_misses_total":        "counter",
		"activerbac_fastpath_bypass_total":        "counter",
		"activerbac_fastpath_invalidations_total": "counter",
		"activerbac_snapshot_epoch":               "gauge",
	}
	for name, typ := range want {
		if families[name] != typ {
			t.Errorf("family %s: type %q, want %q", name, families[name], typ)
		}
	}

	// Traffic showed up: sessions gauge, decision counters, drain work.
	if samples["activerbac_sessions"] != 1 {
		t.Errorf("sessions = %v, want 1", samples["activerbac_sessions"])
	}
	if samples[`activerbac_decisions_total{event="req.checkAccess",verdict="allow"}`] < 1 {
		t.Errorf("no allowed checkAccess decision recorded: %v", samples)
	}
	if samples[`activerbac_decisions_total{event="req.checkAccess",verdict="deny"}`] < 1 {
		t.Errorf("no denied checkAccess decision recorded")
	}
	if samples["activerbac_traces_total"] < 3 {
		t.Errorf("traces_total = %v, want >= 3", samples["activerbac_traces_total"])
	}
	if samples["activerbac_lane_wait_seconds_count"] == 0 {
		t.Error("no drain waits recorded")
	}

	// Histogram invariant: the +Inf bucket equals the count.
	for fam, typ := range families {
		if typ != "histogram" {
			continue
		}
		for k, v := range samples {
			if !strings.HasPrefix(k, fam+"_bucket{") || !strings.Contains(k, `le="+Inf"`) {
				continue
			}
			countKey := strings.Replace(k, "_bucket{", "_count{", 1)
			countKey = strings.Replace(countKey, `le="+Inf"`, "", 1)
			countKey = strings.Replace(countKey, `,}`, `}`, 1)
			if countKey == fam+"_count{}" {
				countKey = fam + "_count"
			}
			if c, ok := samples[countKey]; ok && c != v {
				t.Errorf("%s: +Inf bucket %v != count %v", k, v, c)
			}
		}
	}
}

// TestMetricsFastPathCounters scrapes a server opened with only
// Metrics (no trace ring — traced decisions always cascade): the cache
// is on without any option, GET /v1/fastpath reports its hits, and the
// cache counters move and still satisfy the strict Prometheus parse.
func TestMetricsFastPathCounters(t *testing.T) {
	sys, err := activerbac.Open(testPolicy, &activerbac.Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv := httptest.NewServer((&server{sys: sys}).routes())
	t.Cleanup(srv.Close)

	var sess struct {
		Session string `json:"session"`
	}
	if code := call(t, srv, "POST", "/v1/sessions", `{"user":"bob"}`, &sess); code != 200 {
		t.Fatalf("create session: %d", code)
	}
	call(t, srv, "POST", "/v1/activate", `{"user":"bob","session":"`+sess.Session+`","role":"PC"}`, nil)
	// First check misses and seeds the cache; the repeats hit.
	for i := 0; i < 5; i++ {
		call(t, srv, "GET", "/v1/check?session="+sess.Session+"&operation=write&object=po.dat", "", nil)
	}
	var fp activerbac.FastPathStats
	if code := call(t, srv, "GET", "/v1/fastpath", "", &fp); code != 200 || fp.Hits == 0 {
		t.Fatalf("/v1/fastpath: code=%d %+v, want 200 with hits > 0", code, fp)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, samples := parseProm(t, string(body))
	if samples["activerbac_fastpath_hits_total"] < 4 {
		t.Errorf("fastpath hits = %v, want >= 4", samples["activerbac_fastpath_hits_total"])
	}
	if samples["activerbac_fastpath_misses_total"] < 1 {
		t.Errorf("fastpath misses = %v, want >= 1", samples["activerbac_fastpath_misses_total"])
	}
	if samples["activerbac_snapshot_epoch"] < 1 {
		t.Errorf("snapshot epoch = %v, want >= 1", samples["activerbac_snapshot_epoch"])
	}
	// Policy churn invalidates: applying an identical policy touches no
	// rules, so grow it by one role to force regeneration, and re-scrape.
	if code := call(t, srv, "POST", "/v1/policy", testPolicy+"role Auditor\n", nil); code != 200 {
		t.Fatalf("apply policy: %d", code)
	}
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, samples2 := parseProm(t, string(body2))
	if samples2["activerbac_fastpath_invalidations_total"] <= samples["activerbac_fastpath_invalidations_total"] {
		t.Errorf("invalidations did not grow across a policy apply: %v -> %v",
			samples["activerbac_fastpath_invalidations_total"], samples2["activerbac_fastpath_invalidations_total"])
	}
}

func TestTraceEndpoints(t *testing.T) {
	srv := newObsServer(t)
	sess := driveTraffic(t, srv)

	var traces []activerbac.TraceData
	if code := call(t, srv, "GET", "/v1/traces", "", &traces); code != 200 || len(traces) < 3 {
		t.Fatalf("/v1/traces: code=%d n=%d", code, len(traces))
	}
	// Newest first, each complete, and the activation trace carries its
	// cascade (the role-activation fan-out).
	for i, td := range traces {
		if !td.Complete {
			t.Fatalf("trace %d incomplete", td.ID)
		}
		if i > 0 && td.ID > traces[i-1].ID {
			t.Fatalf("traces not newest-first: %d after %d", td.ID, traces[i-1].ID)
		}
	}
	var activation *activerbac.TraceData
	for i := range traces {
		if strings.Contains(traces[i].Event, "addActiveRole") {
			activation = &traces[i]
			break
		}
	}
	if activation == nil {
		t.Fatal("activation trace not retained")
	}
	if activation.Scope != sess {
		t.Fatalf("activation trace scope = %q, want %q", activation.Scope, sess)
	}
	var sawCascade bool
	for _, s := range activation.Steps {
		if s.Kind == "cascade" {
			sawCascade = true
		}
	}
	if !sawCascade {
		t.Fatalf("activation trace has no cascade step: %+v", activation.Steps)
	}

	// ?n= limits the result.
	if code := call(t, srv, "GET", "/v1/traces?n=1", "", &traces); code != 200 || len(traces) != 1 {
		t.Fatalf("/v1/traces?n=1: code=%d n=%d", code, len(traces))
	}
	if code := call(t, srv, "GET", "/v1/traces?n=bogus", "", nil); code != http.StatusBadRequest {
		t.Fatalf("bad n: code=%d", code)
	}

	// By id.
	var one activerbac.TraceData
	path := fmt.Sprintf("/v1/traces/%d", activation.ID)
	if code := call(t, srv, "GET", path, "", &one); code != 200 || one.ID != activation.ID {
		t.Fatalf("GET %s: code=%d id=%d", path, code, one.ID)
	}
	if len(one.Steps) != len(activation.Steps) {
		t.Fatalf("trace by id has %d steps, listing had %d", len(one.Steps), len(activation.Steps))
	}
	if code := call(t, srv, "GET", "/v1/traces/999999", "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: code=%d", code)
	}
	if code := call(t, srv, "GET", "/v1/traces/notanumber", "", nil); code != http.StatusBadRequest {
		t.Fatalf("bad id: code=%d", code)
	}
}

func TestObservabilityDisabled(t *testing.T) {
	// A server opened without Metrics/TraceBuffer answers 503 rather
	// than serving empty data.
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/metrics without observability: %d", resp.StatusCode)
	}
	if code := call(t, srv, "GET", "/v1/traces", "", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/traces without observability: %d", code)
	}
}
