// Command rbacctl is the command-line client for rbacd.
//
// Usage:
//
//	rbacctl [-server http://localhost:8180] [-wire host:port] <command> [args]
//
// With -wire set, the commands that the binary wire protocol carries —
// check, check-many, ping and epoch — go over a wire connection to
// rbacd's -wire-addr listener instead of HTTP; everything else still
// needs the HTTP API. Adding -cached routes check and check-many
// through the embedded decision cache (the client package): the
// connection subscribes to epoch pushes and repeat allows within the
// invocation are served locally, with hit/miss counters printed
// alongside the verdicts. epoch -watch subscribes and prints every
// pushed epoch as it arrives until interrupted.
//
// Commands:
//
//	session new <user>                      create a session
//	session end <session>                   end a session
//	activate <user> <session> <role>        activate a role
//	deactivate <user> <session> <role>      deactivate a role
//	check [-trace] <session> <operation> <object> [purpose]
//	check-many <session> <op:obj> [<op:obj> ...]    batched checks (wire or HTTP)
//	ping                                    wire liveness probe (wire only)
//	epoch [-watch]                          policy snapshot epoch (wire only);
//	                                        -watch streams epoch pushes until interrupted
//	assign <user> <role>                    assign a role
//	deassign <user> <role>                  remove an assignment
//	user add <user>                         register a user
//	role enable <role> | role disable <role>
//	context set <key> <value>               report an environmental change
//	context get <key>                       read an environmental value
//	verify                                  rule-pool audit + bounded-verification findings
//	rules                                   print the rule inventory
//	stats                                   print engine counters
//	fastpath                                print decision fast-path cache counters
//	alerts                                  print active-security alerts
//	replicas                                print the leader's replica registry (applied epoch, lag, connection state)
//	policy get                              print the loaded policy
//	policy apply <file.acp>                 swap the policy (regenerates rules)
//	trace [id] [-n N]                       print recent decision traces, or one by id
//	slow [-n N]                             print recent slow-decision captures
//	health                                  probe /healthz and /readyz (exit 1 when not ready)
//	metrics                                 print the Prometheus metrics page
//	analyze                                 run the static analyzer on the live system
//
// check -trace mints a 16-byte trace id client-side, carries it on the
// request (the X-Activerbac-Trace header over HTTP, the TRACE opcode
// flag over -wire), and then fetches the retained cascade trace back
// from /v1/traces/{id} — an end-to-end round trip of one decision's
// telemetry.
//
// analyze and verify print one finding per line in the stable
// greppable form "CODE severity subject: message" (verify additionally
// prints each finding's replayable counterexample trace, indented) and
// exit non-zero only when a finding is error severity — warnings never
// fail the command, so scripts can gate on exit codes against
// -analyze=warn / -verify=warn servers. verify also fails on rule-pool
// problems, which are errors by nature.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"activerbac"
	clientcache "activerbac/client"
	"activerbac/internal/wire"
)

func main() {
	args := os.Args[1:]
	server := "http://localhost:8180"
	serverSet := false
	wireAddr := ""
	cached := false
	for len(args) >= 1 {
		if args[0] == "-cached" {
			cached = true
			args = args[1:]
			continue
		}
		if len(args) >= 2 && args[0] == "-server" {
			server = args[1]
			serverSet = true
			args = args[2:]
			continue
		}
		if len(args) >= 2 && args[0] == "-wire" {
			wireAddr = args[1]
			args = args[2:]
			continue
		}
		break
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	c := &client{base: strings.TrimSuffix(server, "/"), serverSet: serverSet, wireAddr: wireAddr, cached: cached}
	if err := c.dispatch(args); err != nil {
		fmt.Fprintln(os.Stderr, "rbacctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: rbacctl [-server URL] [-wire host:port] [-cached] <command> [args]
commands: session new|end, activate, deactivate, check [-trace], assign, deassign,
          user add, role enable|disable, context set|get, verify,
          rules, stats, fastpath, alerts, replicas, policy get|apply,
          trace [id] [-n N], slow [-n N], health, metrics, analyze
wire:     check [-trace], check-many <session> <op:obj>..., ping, epoch [-watch]
          -cached serves check/check-many through the embedded decision cache`)
}

type client struct {
	base      string
	serverSet bool   // -server was given explicitly (not the default)
	wireAddr  string // non-empty routes check/check-many/ping/epoch over wire
	cached    bool   // -cached: check/check-many go through client.Cache
}

func (c *client) dispatch(args []string) error {
	cmd := args[0]
	rest := args[1:]
	switch cmd {
	case "session":
		if len(rest) == 2 && rest[0] == "new" {
			return c.post("/v1/sessions", map[string]string{"user": rest[1]})
		}
		if len(rest) == 2 && rest[0] == "end" {
			return c.do("DELETE", "/v1/sessions", map[string]string{"session": rest[1]})
		}
	case "activate":
		if len(rest) == 3 {
			return c.post("/v1/activate", map[string]string{"user": rest[0], "session": rest[1], "role": rest[2]})
		}
	case "deactivate":
		if len(rest) == 3 {
			return c.post("/v1/deactivate", map[string]string{"user": rest[0], "session": rest[1], "role": rest[2]})
		}
	case "check":
		traced := false
		if len(rest) > 0 && rest[0] == "-trace" {
			traced = true
			rest = rest[1:]
		}
		if traced {
			if len(rest) != 3 {
				return fmt.Errorf("check -trace wants exactly <session> <operation> <object>")
			}
			return c.checkTraced(rest[0], rest[1], rest[2])
		}
		if len(rest) == 3 && c.wireAddr != "" {
			if c.cached {
				return c.cachedCheck(rest[0], [][2]string{{rest[1], rest[2]}})
			}
			return c.wireCheck(rest[0], rest[1], rest[2])
		}
		if len(rest) == 3 || len(rest) == 4 {
			if c.wireAddr != "" {
				return fmt.Errorf("purpose checks are not carried on the wire protocol; drop -wire")
			}
			q := url.Values{"session": {rest[0]}, "operation": {rest[1]}, "object": {rest[2]}}
			if len(rest) == 4 {
				q.Set("purpose", rest[3])
			}
			return c.get("/v1/check?" + q.Encode())
		}
	case "check-many":
		if len(rest) >= 2 {
			if c.wireAddr != "" {
				if c.cached {
					pairs := make([][2]string, 0, len(rest)-1)
					for _, p := range rest[1:] {
						op, obj, ok := strings.Cut(p, ":")
						if !ok {
							return fmt.Errorf("check-many wants op:obj pairs, got %q", p)
						}
						pairs = append(pairs, [2]string{op, obj})
					}
					return c.cachedCheck(rest[0], pairs)
				}
				return c.wireCheckMany(rest[0], rest[1:])
			}
			return c.httpCheckMany(rest[0], rest[1:])
		}
	case "ping":
		if len(rest) == 0 {
			return c.wirePing()
		}
	case "epoch":
		if len(rest) == 0 {
			return c.wireEpoch()
		}
		if len(rest) == 1 && rest[0] == "-watch" {
			return c.wireEpochWatch()
		}
	case "assign":
		if len(rest) == 2 {
			return c.post("/v1/assign", map[string]string{"user": rest[0], "role": rest[1]})
		}
	case "deassign":
		if len(rest) == 2 {
			return c.post("/v1/deassign", map[string]string{"user": rest[0], "role": rest[1]})
		}
	case "user":
		if len(rest) == 2 && rest[0] == "add" {
			return c.post("/v1/users", map[string]string{"user": rest[1]})
		}
	case "role":
		if len(rest) == 2 && (rest[0] == "enable" || rest[0] == "disable") {
			return c.post("/v1/roles/"+rest[0], map[string]string{"role": rest[1]})
		}
	case "context":
		if len(rest) == 3 && rest[0] == "set" {
			return c.post("/v1/context", map[string]string{"key": rest[1], "value": rest[2]})
		}
		if len(rest) == 2 && rest[0] == "get" {
			return c.get("/v1/context?" + url.Values{"key": {rest[1]}}.Encode())
		}
	case "verify":
		if len(rest) == 0 {
			return c.verify()
		}
	case "rules":
		return c.get("/v1/rules")
	case "stats":
		return c.get("/v1/stats")
	case "fastpath":
		if len(rest) == 0 {
			return c.get("/v1/fastpath")
		}
	case "alerts":
		return c.get("/v1/alerts")
	case "replicas":
		if len(rest) == 0 {
			return c.get("/v1/replication")
		}
	case "policy":
		if len(rest) == 1 && rest[0] == "get" {
			return c.getRaw("/v1/policy")
		}
		if len(rest) == 2 && rest[0] == "apply" {
			data, err := os.ReadFile(rest[1])
			if err != nil {
				return err
			}
			return c.postRaw("/v1/policy", data)
		}
	case "trace":
		switch {
		case len(rest) == 0:
			return c.get("/v1/traces")
		case len(rest) == 2 && rest[0] == "-n":
			return c.get("/v1/traces?" + url.Values{"n": {rest[1]}}.Encode())
		case len(rest) == 1:
			return c.get("/v1/traces/" + url.PathEscape(rest[0]))
		}
	case "slow":
		switch {
		case len(rest) == 0:
			return c.get("/v1/slow")
		case len(rest) == 2 && rest[0] == "-n":
			return c.get("/v1/slow?" + url.Values{"n": {rest[1]}}.Encode())
		}
	case "health":
		if len(rest) == 0 {
			return c.health()
		}
	case "metrics":
		if len(rest) == 0 {
			return c.getRaw("/metrics")
		}
	case "analyze":
		if len(rest) == 0 {
			return c.analyze()
		}
	}
	usage()
	return fmt.Errorf("unknown or malformed command %q", strings.Join(args, " "))
}

// wireClient dials the -wire address (one short-lived pooled client per
// invocation; rbacctl is a one-shot tool).
func (c *client) wireClient() (*wire.Client, error) {
	if c.wireAddr == "" {
		return nil, fmt.Errorf("this command needs -wire host:port (rbacd's -wire-addr listener)")
	}
	return wire.Dial(c.wireAddr, &wire.ClientOptions{Timeout: 10 * time.Second})
}

func (c *client) wireCheck(session, operation, object string) error {
	wc, err := c.wireClient()
	if err != nil {
		return err
	}
	defer wc.Close()
	allowed, err := wc.Check(session, operation, object)
	if err != nil {
		return err
	}
	fmt.Printf("{\n  \"allowed\": %v\n}\n", allowed)
	return nil
}

// wireCheckMany batches "op:obj" pairs for one session into a single
// CHECK_BATCH frame and prints one verdict line per pair.
func (c *client) wireCheckMany(session string, pairs []string) error {
	reqs := make([]wire.CheckRequest, 0, len(pairs))
	for _, p := range pairs {
		op, obj, ok := strings.Cut(p, ":")
		if !ok {
			return fmt.Errorf("check-many wants op:obj pairs, got %q", p)
		}
		reqs = append(reqs, wire.CheckRequest{Session: session, Operation: op, Object: obj})
	}
	wc, err := c.wireClient()
	if err != nil {
		return err
	}
	defer wc.Close()
	verdicts, err := wc.CheckMany(reqs)
	if err != nil {
		return err
	}
	for i, v := range verdicts {
		fmt.Printf("%s %s: %v\n", reqs[i].Operation, reqs[i].Object, v)
	}
	return nil
}

// httpCheckMany is check-many over POST /v1/check-batch, printing the
// same verdict lines as the wire transport.
func (c *client) httpCheckMany(session string, pairs []string) error {
	type batchCheck struct {
		Session   string `json:"session"`
		Operation string `json:"operation"`
		Object    string `json:"object"`
	}
	checks := make([]batchCheck, 0, len(pairs))
	for _, p := range pairs {
		op, obj, ok := strings.Cut(p, ":")
		if !ok {
			return fmt.Errorf("check-many wants op:obj pairs, got %q", p)
		}
		checks = append(checks, batchCheck{Session: session, Operation: op, Object: obj})
	}
	data, err := json.Marshal(map[string]any{"checks": checks})
	if err != nil {
		return err
	}
	req, err := http.NewRequest("POST", c.base+"/v1/check-batch", bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var payload struct {
		Verdicts []bool `json:"verdicts"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&payload); err != nil {
		return fmt.Errorf("decoding /v1/check-batch response: %w", err)
	}
	if len(payload.Verdicts) != len(checks) {
		return fmt.Errorf("server answered %d of %d checks", len(payload.Verdicts), len(checks))
	}
	for i, v := range payload.Verdicts {
		fmt.Printf("%s %s: %v\n", checks[i].Operation, checks[i].Object, v)
	}
	return nil
}

// checkTraced mints a trace id, runs the check with it over whichever
// transport is selected, then fetches the retained cascade trace back
// over HTTP and prints verdict, id and trace.
func (c *client) checkTraced(session, operation, object string) error {
	tid := activerbac.NewTraceID()
	if tid.IsZero() {
		return fmt.Errorf("could not mint a trace id")
	}
	var allowed bool
	if c.wireAddr != "" {
		wc, err := c.wireClient()
		if err != nil {
			return err
		}
		defer wc.Close()
		verdicts, err := wc.CheckMany([]wire.CheckRequest{{
			Session: session, Operation: operation, Object: object, Trace: tid,
		}})
		if err != nil {
			return err
		}
		allowed = verdicts[0]
	} else {
		req, err := http.NewRequest("GET", c.base+"/v1/check?"+url.Values{
			"session": {session}, "operation": {operation}, "object": {object},
		}.Encode(), nil)
		if err != nil {
			return err
		}
		req.Header.Set("X-Activerbac-Trace", tid.String())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		if resp.StatusCode >= 400 {
			return fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		var payload struct {
			Allowed bool `json:"allowed"`
		}
		if err := json.Unmarshal(body, &payload); err != nil {
			return fmt.Errorf("decoding /v1/check response: %w", err)
		}
		allowed = payload.Allowed
	}
	fmt.Printf("allowed: %v\ntrace id: %s\n", allowed, tid)
	// The trace body is served over HTTP only. A wire check with no
	// explicit -server would guess the default HTTP address and likely
	// print a confusing dial error; leave the fetch to the caller.
	if c.wireAddr != "" && !c.serverSet {
		fmt.Printf("(wire carries no trace bodies: rerun with -server, or GET /v1/traces/%s)\n", tid)
		return nil
	}
	return c.get("/v1/traces/" + tid.String())
}

// health probes liveness and readiness; an unready server (or one that
// cannot be reached) makes the command exit non-zero.
func (c *client) health() error {
	resp, err := http.Get(c.base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz returned %s", resp.Status)
	}
	fmt.Println("live: true")
	if err := c.get("/readyz"); err != nil {
		return fmt.Errorf("not ready: %w", err)
	}
	return nil
}

func (c *client) wirePing() error {
	wc, err := c.wireClient()
	if err != nil {
		return err
	}
	defer wc.Close()
	start := time.Now()
	if err := wc.Ping(); err != nil {
		return err
	}
	fmt.Printf("pong (%s)\n", time.Since(start).Round(time.Microsecond))
	return nil
}

func (c *client) wireEpoch() error {
	wc, err := c.wireClient()
	if err != nil {
		return err
	}
	defer wc.Close()
	epoch, err := wc.PolicyVersion()
	if err != nil {
		return err
	}
	fmt.Printf("{\n  \"snapshotEpoch\": %d\n}\n", epoch)
	return nil
}

// wireEpochWatch subscribes to epoch pushes and prints each epoch as
// it arrives, until interrupted or the subscription drops.
func (c *client) wireEpochWatch() error {
	if c.wireAddr == "" {
		return fmt.Errorf("epoch -watch needs -wire host:port (rbacd's -wire-addr listener)")
	}
	// The callbacks run on the connection's read goroutine and must not
	// block: pushes are forwarded through a buffered channel and the
	// channel send never waits (a full buffer coalesces — the watcher
	// prints the epochs it got, never stalls the reader).
	pushes := make(chan uint64, 64)
	lost := make(chan struct{}, 1)
	wc, err := wire.Dial(c.wireAddr, &wire.ClientOptions{
		Timeout: 10 * time.Second,
		OnEpochPush: func(epoch uint64) {
			select {
			case pushes <- epoch:
			default:
			}
		},
		OnSubscriptionLost: func() {
			select {
			case lost <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		return err
	}
	defer wc.Close()
	epoch, err := wc.Subscribe()
	if err != nil {
		return err
	}
	fmt.Printf("epoch %d (watching for pushes; interrupt to stop)\n", epoch)
	for {
		select {
		case e := <-pushes:
			fmt.Printf("epoch %d\n", e)
		case <-lost:
			return fmt.Errorf("subscription lost (connection dropped)")
		}
	}
}

// cachedCheck runs the pairs for one session through the embedded
// decision cache: repeat allows within the invocation are served
// locally, and the hit/miss/subscription counters are printed after
// the verdicts.
func (c *client) cachedCheck(session string, pairs [][2]string) error {
	cc, err := clientcache.New(c.wireAddr, &clientcache.Options{Timeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer cc.Close()
	for _, p := range pairs {
		allowed, err := cc.Check(session, p[0], p[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s %s: %v\n", p[0], p[1], allowed)
	}
	st := cc.Stats()
	fmt.Printf("cache: subscribed=%v epoch=%d hits=%d misses=%d\n",
		cc.Subscribed(), cc.Epoch(), st.Hits, st.Misses)
	return nil
}

// clientFinding is the finding shape both /v1/analyze and /v1/verify
// serve; verify findings may carry a counterexample.
type clientFinding struct {
	Code           string `json:"code"`
	Severity       string `json:"severity"`
	Subject        string `json:"subject"`
	Msg            string `json:"msg"`
	Counterexample *struct {
		Steps []clientStep `json:"steps"`
	} `json:"counterexample"`
}

// clientStep is one counterexample event as served by /v1/verify.
type clientStep struct {
	Op        string `json:"op"`
	User      string `json:"user"`
	Session   string `json:"session"`
	Role      string `json:"role"`
	Operation string `json:"operation"`
	Object    string `json:"object"`
	At        string `json:"at"`
}

func (st clientStep) String() string {
	switch st.Op {
	case "session":
		return fmt.Sprintf("session %s for %s", st.Session, st.User)
	case "activate", "drop":
		return fmt.Sprintf("%s %s in %s", st.Op, st.Role, st.Session)
	case "tick":
		return fmt.Sprintf("tick -> %s", st.At)
	case "check":
		return fmt.Sprintf("check %s %s in %s (allowed)", st.Operation, st.Object, st.Session)
	}
	return st.Op
}

// countErrors tallies error-severity findings — the only severity that
// makes analyze/verify exit non-zero.
func countErrors(fs []clientFinding) int {
	n := 0
	for _, f := range fs {
		if f.Severity == "error" {
			n++
		}
	}
	return n
}

// analyze fetches /v1/analyze and prints each finding in the stable
// one-line form; only error-severity findings make the command exit 1
// (warnings are reported but never fail scripting).
func (c *client) analyze() error {
	resp, err := http.Get(c.base + "/v1/analyze")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var payload struct {
		Findings []clientFinding `json:"findings"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&payload); err != nil {
		return fmt.Errorf("decoding /v1/analyze response: %w", err)
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	for _, f := range payload.Findings {
		fmt.Printf("%s %s %s: %s\n", f.Code, f.Severity, f.Subject, f.Msg)
	}
	if nErr := countErrors(payload.Findings); nErr > 0 {
		return fmt.Errorf("static analysis reported %d error-severity finding(s)", nErr)
	}
	fmt.Printf("analysis: %d finding(s), none at error severity\n", len(payload.Findings))
	return nil
}

// verify fetches /v1/verify and prints the rule-pool problems plus the
// bounded-verification findings with their counterexample traces.
// Error-severity findings and pool problems make the command exit 1;
// warnings do not.
func (c *client) verify() error {
	resp, err := http.Get(c.base + "/v1/verify")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var payload struct {
		Problems  []string        `json:"problems"`
		Mode      string          `json:"mode"`
		States    int             `json:"states"`
		Truncated bool            `json:"truncated"`
		Findings  []clientFinding `json:"findings"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&payload); err != nil {
		return fmt.Errorf("decoding /v1/verify response: %w", err)
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	for _, p := range payload.Problems {
		fmt.Println("rule-pool problem:", p)
	}
	for _, f := range payload.Findings {
		fmt.Printf("%s %s %s: %s\n", f.Code, f.Severity, f.Subject, f.Msg)
		if f.Counterexample != nil {
			for _, st := range f.Counterexample.Steps {
				fmt.Printf("    %s\n", st)
			}
		}
	}
	nErr := countErrors(payload.Findings)
	if len(payload.Problems) > 0 || nErr > 0 {
		return fmt.Errorf("verification reported %d rule-pool problem(s) and %d error-severity finding(s)", len(payload.Problems), nErr)
	}
	if payload.Mode == "off" {
		fmt.Println("verification: rule pool consistent (bounded verification off; start rbacd with -verify=warn)")
		return nil
	}
	trunc := ""
	if payload.Truncated {
		trunc = ", search truncated"
	}
	fmt.Printf("verification: %d state(s) explored, %d finding(s), none at error severity%s\n",
		payload.States, len(payload.Findings), trunc)
	return nil
}

func (c *client) post(path string, body map[string]string) error {
	return c.do("POST", path, body)
}

func (c *client) do(method, path string, body map[string]string) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.send(req)
}

func (c *client) get(path string) error {
	req, err := http.NewRequest("GET", c.base+path, nil)
	if err != nil {
		return err
	}
	return c.send(req)
}

func (c *client) getRaw(path string) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func (c *client) postRaw(path string, data []byte) error {
	req, err := http.NewRequest("POST", c.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain")
	return c.send(req)
}

func (c *client) send(req *http.Request) error {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	// Pretty-print JSON responses.
	var buf bytes.Buffer
	if json.Indent(&buf, body, "", "  ") == nil {
		fmt.Println(buf.String())
	} else {
		fmt.Println(string(body))
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return nil
}
