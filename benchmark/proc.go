package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/rbacd, found under the module root, into dir
// and returns the binary's absolute path.
func buildServer(moduleRoot, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "rbacd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rbacd")
	cmd.Dir = moduleRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build rbacd: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one rbacd process, alone in its own process group so that
// kill reaches anything it might start.
type child struct {
	name     string
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	readyIn  time.Duration
	logPath  string

	exited chan struct{} // closed once Wait returns
	mu     sync.Mutex
	killed bool
}

// The README's production line; every child of every workload runs it.
var deploymentFlags = []string{
	"-fastpath", "on", "-trace-sample", "0.01", "-trace-rate-limit", "100",
	"-analyze", "warn", "-verify", "off", "-lanes", "0",
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts an rbacd child with the fixed deployment flags plus
// extra, and returns once /readyz answers 200.
func spawn(bin, outDir, name string, extra ...string) (*child, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	wireAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{name: name, httpAddr: httpAddr, wireAddr: wireAddr,
		logPath: filepath.Join(outDir, name+".log"), exited: make(chan struct{})}
	logFile, err := os.Create(c.logPath)
	if err != nil {
		return nil, err
	}
	args := append(append([]string{}, deploymentFlags...), "-addr", httpAddr, "-wire-addr", wireAddr)
	c.cmd = exec.Command(bin, append(args, extra...)...)
	c.cmd.Stdout, c.cmd.Stderr = logFile, logFile
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	started := time.Now()
	if err := c.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = c.cmd.Wait() // the exit status is read from ProcessState
		logFile.Close()
		close(c.exited)
	}()
	if err := c.waitReady(60 * time.Second); err != nil {
		c.kill()
		return nil, err
	}
	c.readyIn = time.Since(started)
	return c, nil
}

func (c *child) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return fmt.Errorf("%s exited before it was ready: %s", c.name, c.logTail())
		default:
		}
		resp, err := httpClient.Get("http://" + c.httpAddr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v: %s", c.name, limit, c.logTail())
}

// kill ends the child's whole process group and waits for it.
func (c *child) kill() {
	c.mu.Lock()
	already := c.killed
	c.killed = true
	c.mu.Unlock()
	if !already && c.cmd.Process != nil {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // gone already is fine
	}
	<-c.exited
}

// alive reports whether the child is still running; a child that died
// on its own invalidates the run.
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

func (c *child) logTail() string {
	data, err := os.ReadFile(c.logPath)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// procUsage is what /proc says about one child.
type procUsage struct {
	userS, sysS  float64
	rssMB, hwmMB float64
}

// clockTick is USER_HZ; Linux has reported 100 on every architecture Go
// supports since 2.6.
const clockTick = 100

func (c *child) usage() (procUsage, error) {
	var u procUsage
	pid := strconv.Itoa(c.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	u.userS, u.sysS = ut/clockTick, st/clockTick

	status, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return u, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		k, v, _ := strings.Cut(sc.Text(), ":")
		kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		switch k {
		case "VmRSS":
			u.rssMB = kb / 1024
		case "VmHWM":
			u.hwmMB = kb / 1024
		}
	}
	return u, sc.Err()
}

// httpClient is shared by every HTTP caller of the run; keep-alive
// connections are per host, so children do not share them.
var httpClient = &http.Client{
	Timeout:   30 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute},
}

// call sends one JSON request and decodes the JSON answer into out
// (when non-nil). A 403 is a policy denial and comes back as
// denied=true; any other non-200 is an error.
func (c *child) call(method, path, body string, out any) (denied bool, err error) {
	req, err := http.NewRequest(method, "http://"+c.httpAddr+path, strings.NewReader(body))
	if err != nil {
		return false, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if out != nil {
			return false, json.Unmarshal(data, out)
		}
		return false, nil
	case http.StatusForbidden:
		return true, nil
	default:
		return false, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
}

// policy fetches the policy text the child serves.
func (c *child) policy() (string, error) {
	resp, err := httpClient.Get("http://" + c.httpAddr + "/v1/policy")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /v1/policy: status %d", resp.StatusCode)
	}
	return string(data), nil
}

// fastPath is the verdict cache's own account of itself.
type fastPath struct {
	Hits, Misses, Bypass, Invalidations float64
}

func (c *child) fastPath() (fastPath, error) {
	var fp fastPath
	_, err := c.call("GET", "/v1/fastpath", "", &fp)
	return fp, err
}

// hitShare is hits over everything the cache was asked.
func (fp fastPath) hitShare(start fastPath) float64 {
	asked := (fp.Hits - start.Hits) + (fp.Misses - start.Misses) + (fp.Bypass - start.Bypass)
	if asked == 0 {
		return 0
	}
	return (fp.Hits - start.Hits) / asked
}

// counters is one scrape of a child's Prometheus page, keyed by series.
type counters map[string]float64

func (c *child) scrape() (counters, error) {
	resp, err := httpClient.Get("http://" + c.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := counters{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of a family whose label set contains match
// ("" matches all).
func (c counters) sum(family, match string) float64 {
	var total float64
	for k, v := range c {
		name, labels, _ := strings.Cut(k, "{")
		if name == family && strings.Contains(labels, match) {
			total += v
		}
	}
	return total
}

// delta is end − start, series by series.
func (c counters) delta(start counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - start[k]
	}
	return out
}

// lanesOf asks the child how many enforcement lanes -lanes 0 became.
func lanesOf(c *child) int {
	var st struct{ Lanes []struct{ Lane string } }
	if _, err := c.call("GET", "/v1/stats", "", &st); err != nil {
		return 0
	}
	n := 0
	for _, l := range st.Lanes {
		if strings.HasPrefix(l.Lane, "scope-") {
			n++
		}
	}
	return n
}

// fatalLine is the line of the child's log that says why it died.
func (c *child) fatalLine() string {
	data, err := os.ReadFile(c.logPath)
	if err != nil {
		return err.Error()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "fatal error:") || strings.HasPrefix(line, "panic:") {
			return line
		}
	}
	return "no fatal line in " + c.logPath
}
