package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ClientOptions tunes a Client; the zero value selects the defaults.
type ClientOptions struct {
	// Conns is the connection-pool size. Every connection is fully
	// pipelined, so one connection already supports many concurrent
	// callers; more connections spread the per-connection write lock
	// and the server's per-connection in-flight cap. Default 1.
	Conns int
	// MaxFrame bounds one received frame. Default DefaultMaxFrame.
	MaxFrame int
	// Timeout bounds dialing and each request round trip. Default 10s.
	Timeout time.Duration
	// OnEpochPush, when set, is called with the pushed epoch whenever
	// an EPOCH_PUSH frame arrives on any pooled connection (after a
	// Subscribe). It runs on the connection's read goroutine and must
	// not block.
	OnEpochPush func(epoch uint64)
	// OnSubscriptionLost, when set, is called whenever a connection
	// that carried a successful Subscribe dies: pushes may have been
	// missed from that instant and any push-derived state is stale
	// until a new Subscribe succeeds. It must not block.
	OnSubscriptionLost func()
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	return o
}

// ErrClientClosed is returned by calls on a closed Client.
var ErrClientClosed = errors.New("wire: client closed")

// ErrBackoff is returned (wrapped) when a request lands on a dead pool
// slot whose redial is still backing off; retry after the reported
// wait.
var ErrBackoff = errors.New("wire: redial backing off")

// Redial backoff bounds: the first redial after a failure waits
// redialBase, doubling per consecutive failure up to redialCap, plus
// up to 50% jitter so pooled clients don't reconnect in lockstep.
const (
	redialBase = 10 * time.Millisecond
	redialCap  = time.Second
)

// Client is a connection-pooled, pipelined wire-protocol client. All
// methods are safe for concurrent use; concurrent calls share pooled
// connections and their responses are correlated by request id, so no
// caller ever waits behind another caller's round trip.
type Client struct {
	addr   string
	opts   ClientOptions
	next   atomic.Uint32
	closed atomic.Bool
	slots  []*clientSlot
	// dial is the connection factory, a field so tests can count and
	// refuse dials; Dial installs the TCP default.
	dial func() (net.Conn, error)
}

// clientSlot is one pool slot; the mutex covers (re)dialing and the
// backoff bookkeeping.
type clientSlot struct {
	mu sync.Mutex
	cc *clientConn
	// fails counts consecutive dial failures; nextDial is the earliest
	// instant the next redial may be attempted.
	fails    int
	nextDial time.Time
}

// Dial builds a client for addr and eagerly dials the first pooled
// connection so configuration errors surface immediately; the
// remaining connections dial lazily on first use.
func Dial(addr string, opts *ClientOptions) (*Client, error) {
	var o ClientOptions
	if opts != nil {
		o = *opts
	}
	c := &Client{addr: addr, opts: o.withDefaults()}
	c.dial = func() (net.Conn, error) {
		return net.DialTimeout("tcp", c.addr, c.opts.Timeout)
	}
	c.slots = make([]*clientSlot, c.opts.Conns)
	for i := range c.slots {
		c.slots[i] = &clientSlot{}
	}
	if _, err := c.conn(c.slots[0]); err != nil {
		return nil, err
	}
	return c, nil
}

// Check runs one access check.
func (c *Client) Check(session, operation, object string) (bool, error) {
	payload := AppendCheck(make([]byte, 0, 64), session, operation, object)
	resp, err := c.roundTrip(OpCheck, payload)
	if err != nil {
		return false, err
	}
	if len(resp) != 1 || resp[0] > 1 {
		return false, fmt.Errorf("wire: bad CHECK response: %w", ErrBadPayload)
	}
	return resp[0] == 1, nil
}

// CheckMany runs a batch of access checks in one frame and returns the
// verdicts in request order. A nonzero reqs[0].Trace sets the TRACE
// flag: the server traces the first check under that id, retained for
// /v1/traces/{id}. The Trace of every later request is not sent.
func (c *Client) CheckMany(reqs []CheckRequest) ([]bool, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if len(reqs) > MaxBatch {
		return nil, fmt.Errorf("wire: batch of %d exceeds MaxBatch %d", len(reqs), MaxBatch)
	}
	op, payload := OpCheckBatch, make([]byte, 0, TraceIDSize+16+64*len(reqs))
	if tid := reqs[0].Trace; tid != ([TraceIDSize]byte{}) {
		op |= TraceFlag
		payload = AppendTraceID(payload, tid)
	}
	resp, err := c.roundTrip(op, AppendCheckBatch(payload, reqs))
	if err != nil {
		return nil, err
	}
	verdicts, err := ConsumeVerdicts(resp, make([]bool, 0, len(reqs)))
	if err != nil {
		return nil, err
	}
	if len(verdicts) != len(reqs) {
		return nil, fmt.Errorf("wire: CHECK_BATCH answered %d of %d checks: %w",
			len(verdicts), len(reqs), ErrBadPayload)
	}
	return verdicts, nil
}

// CheckCacheable runs one access check with the CACHE flag set: the
// server additionally reports whether the verdict is safe for an
// epoch-tagged local cache until the next EPOCH_PUSH.
func (c *Client) CheckCacheable(session, operation, object string) (allowed, cacheable bool, err error) {
	payload := AppendCheck(make([]byte, 0, 64), session, operation, object)
	resp, err := c.roundTrip(OpCheck|CacheFlag, payload)
	if err != nil {
		return false, false, err
	}
	allowed, cacheable, cerr := ConsumeCacheVerdict(resp)
	if cerr != nil {
		return false, false, fmt.Errorf("wire: bad CHECK response: %w", cerr)
	}
	return allowed, cacheable, nil
}

// Subscribe registers one pooled connection for epoch pushes and
// returns the push epoch current at registration. Pushes arrive via
// ClientOptions.OnEpochPush; if the subscribed connection later dies,
// ClientOptions.OnSubscriptionLost fires and the caller must Subscribe
// again (redials do not re-subscribe themselves).
func (c *Client) Subscribe() (uint64, error) {
	slot := c.slots[int(c.next.Add(1))%len(c.slots)]
	cc, err := c.conn(slot)
	if err != nil {
		return 0, err
	}
	// Marked before the round trip: if the connection dies mid-flight
	// the loss callback still fires, so the caller can never believe a
	// half-made subscription is live.
	cc.subscribed.Store(true)
	res, err := cc.roundTrip(OpSubscribe, nil)
	if err != nil {
		cc.subscribed.Store(false)
		return 0, err
	}
	if res.op == OpError {
		cc.subscribed.Store(false)
		code, msg, perr := ConsumeErrorPayload(res.payload)
		if perr != nil {
			return 0, perr
		}
		return 0, &RemoteError{Code: code, Msg: msg}
	}
	if res.op != OpSubscribe|RespFlag {
		cc.subscribed.Store(false)
		return 0, fmt.Errorf("wire: response opcode %#x for SUBSCRIBE: %w", res.op, ErrBadPayload)
	}
	epoch, err := ConsumeEpoch(res.payload)
	if err != nil {
		cc.subscribed.Store(false)
		return 0, err
	}
	return epoch, nil
}

// Sync pulls a policy-sync snapshot from a leader: the replica's name
// and its applied epoch go up, the leader's epoch, content hash and
// snapshot bytes come back. The caller verifies the hash before
// installing anything. Replication clients must configure MaxFrame
// well past DefaultMaxFrame (see MaxSyncData) — a full snapshot
// legitimately outgrows a check frame — and a Timeout sized for the
// transfer, not for a check round trip.
func (c *Client) Sync(replica string, applied uint64) (SyncState, error) {
	payload := AppendSyncRequest(make([]byte, 0, 32+len(replica)), replica, applied)
	resp, err := c.roundTrip(OpSync, payload)
	if err != nil {
		return SyncState{}, err
	}
	st, err := ConsumeSyncState(resp)
	if err != nil {
		return SyncState{}, fmt.Errorf("wire: bad SYNC response: %w", err)
	}
	return st, nil
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	_, err := c.roundTrip(OpPing, nil)
	return err
}

// PolicyVersion fetches the server's policy snapshot epoch.
func (c *Client) PolicyVersion() (uint64, error) {
	resp, err := c.roundTrip(OpPolicyVersion, nil)
	if err != nil {
		return 0, err
	}
	return ConsumeEpoch(resp)
}

// Close closes every pooled connection; in-flight calls fail.
func (c *Client) Close() error {
	c.closed.Store(true)
	for _, slot := range c.slots {
		slot.mu.Lock()
		if slot.cc != nil {
			slot.cc.fail(ErrClientClosed)
			slot.cc = nil
		}
		slot.mu.Unlock()
	}
	return nil
}

// conn returns the slot's live connection, redialing if missing or
// dead. Redials follow an exponential backoff with jitter (capped at
// redialCap): while the slot is backing off the call fails fast with
// ErrBackoff instead of dialing, so a fleet of pooled clients cannot
// hammer a restarting server with a reconnect storm.
func (c *Client) conn(slot *clientSlot) (*clientConn, error) {
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if cc := slot.cc; cc != nil && !cc.dead() {
		return cc, nil
	}
	if wait := time.Until(slot.nextDial); wait > 0 {
		return nil, fmt.Errorf("wire: slot redial in %v: %w",
			wait.Round(time.Millisecond), ErrBackoff)
	}
	nc, err := c.dial()
	if err != nil {
		slot.fails++
		backoff := redialBase
		for i := 1; i < slot.fails && backoff < redialCap; i++ {
			backoff *= 2
		}
		if backoff > redialCap {
			backoff = redialCap
		}
		backoff += time.Duration(rand.Int64N(int64(backoff)/2 + 1))
		slot.nextDial = time.Now().Add(backoff)
		return nil, err
	}
	slot.fails = 0
	slot.nextDial = time.Time{}
	cc := &clientConn{c: nc, timeout: c.opts.Timeout, pending: map[uint32]chan result{},
		kick: make(chan struct{}, 1), done: make(chan struct{}),
		onPush: c.opts.OnEpochPush, onLost: c.opts.OnSubscriptionLost}
	go cc.readLoop(c.opts.MaxFrame)
	go cc.writeLoop()
	slot.cc = cc
	return cc, nil
}

// roundTrip sends one request on a pooled connection and waits for its
// response, unwrapping ERROR frames into *RemoteError.
func (c *Client) roundTrip(op byte, payload []byte) ([]byte, error) {
	slot := c.slots[int(c.next.Add(1))%len(c.slots)]
	cc, err := c.conn(slot)
	if err != nil {
		return nil, err
	}
	res, err := cc.roundTrip(op, payload)
	if err != nil {
		return nil, err
	}
	if res.op == OpError {
		code, msg, perr := ConsumeErrorPayload(res.payload)
		if perr != nil {
			return nil, perr
		}
		return nil, &RemoteError{Code: code, Msg: msg}
	}
	if res.op != op|RespFlag {
		return nil, fmt.Errorf("wire: response opcode %#x for request %#x: %w", res.op, op, ErrBadPayload)
	}
	return res.payload, nil
}

// result is one response delivered to a waiting caller. payload is an
// owned copy.
type result struct {
	op      byte
	payload []byte
}

// clientConn is one pipelined connection. A request alone in flight is
// written by its caller; one that joins others in flight is queued,
// and a writer goroutine sends the whole queue in one write. A
// background reader correlates responses to waiters by request id.
type clientConn struct {
	c net.Conn
	// timeout bounds each socket write and each round trip.
	timeout time.Duration

	// onPush and onLost are the owning client's push callbacks;
	// subscribed marks a connection that carried a successful
	// SUBSCRIBE, so its death reports the subscription as lost.
	onPush     func(epoch uint64)
	onLost     func()
	subscribed atomic.Bool

	// wmu serializes socket writes; wbuf is a lone request's frame.
	wmu  sync.Mutex
	wbuf []byte

	// queue holds the frames waiting for the writer goroutine, under
	// qmu; kick wakes the writer, and done, closed by fail, stops it.
	qmu   sync.Mutex
	queue []byte
	kick  chan struct{}
	done  chan struct{}

	mu      sync.Mutex
	pending map[uint32]chan result
	nextID  uint32
	err     error
}

func (cc *clientConn) dead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// fail marks the connection dead and wakes every waiter with err.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		close(cc.done)
	}
	pending := cc.pending
	cc.pending = map[uint32]chan result{}
	cc.mu.Unlock()
	cc.c.Close()
	for _, ch := range pending {
		close(ch) // a closed channel signals "connection failed"
	}
	// A dead subscribed connection means pushes may have been missed
	// from this instant; tell the owner so push-derived caches can
	// stop serving before the gap widens.
	if cc.subscribed.Swap(false) && cc.onLost != nil {
		cc.onLost()
	}
}

// readLoop delivers response frames to their waiters until the
// connection dies.
func (cc *clientConn) readLoop(maxFrame int) {
	dec := NewDecoder(bufio.NewReaderSize(cc.c, 32<<10), maxFrame)
	for {
		f, err := dec.Next()
		if err != nil {
			cc.fail(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		if f.Op == OpEpochPush {
			// Unsolicited server push, intercepted before the pending-id
			// correlation (its id is always 0). A push that does not
			// decode means invalidations may be lost: kill the
			// connection so the subscription loss is reported rather
			// than silently serving stale state.
			epoch, perr := ConsumeEpoch(f.Payload)
			if perr != nil {
				cc.fail(fmt.Errorf("wire: bad EPOCH_PUSH payload: %w", perr))
				return
			}
			if cc.onPush != nil {
				cc.onPush(epoch)
			}
			continue
		}
		cc.mu.Lock()
		ch, ok := cc.pending[f.ID]
		if ok {
			delete(cc.pending, f.ID)
		}
		cc.mu.Unlock()
		if !ok {
			continue // response to a timed-out request; drop it
		}
		// The payload aliases the decoder buffer: copy before handoff.
		var p []byte
		if len(f.Payload) > 0 {
			p = append([]byte(nil), f.Payload...)
		}
		ch <- result{op: f.Op, payload: p}
	}
}

func (cc *clientConn) roundTrip(op byte, payload []byte) (result, error) {
	timeout := cc.timeout
	ch := make(chan result, 1)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return result{}, err
	}
	id := cc.nextID
	cc.nextID++
	alone := len(cc.pending) == 0
	cc.pending[id] = ch
	cc.mu.Unlock()

	if alone {
		// Nothing to share a write with: no hand-off, no wait.
		cc.wmu.Lock()
		cc.wbuf = AppendFrame(cc.wbuf[:0], op, id, payload)
		cc.c.SetWriteDeadline(time.Now().Add(timeout))
		_, werr := cc.c.Write(cc.wbuf)
		cc.wmu.Unlock()
		if werr != nil {
			cc.fail(fmt.Errorf("wire: write: %w", werr))
			cc.forget(id)
			return result{}, werr
		}
	} else {
		cc.qmu.Lock()
		cc.queue = AppendFrame(cc.queue, op, id, payload)
		cc.qmu.Unlock()
		select {
		case cc.kick <- struct{}{}:
		default: // the writer is already due to run
		}
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res, ok := <-ch:
		if !ok {
			cc.mu.Lock()
			err := cc.err
			cc.mu.Unlock()
			if err == nil {
				err = errors.New("wire: connection failed")
			}
			return result{}, err
		}
		return res, nil
	case <-timer.C:
		cc.forget(id)
		return result{}, fmt.Errorf("wire: request %s timed out after %v", OpName(op), timeout)
	}
}

// writeLoop sends the queued frames until the connection fails. It
// yields once before taking the queue: the callers that one response
// read woke then queue their frames first, and they share the write.
// A write error fails the connection, which wakes every waiter.
func (cc *clientConn) writeLoop() {
	var buf []byte
	for {
		select {
		case <-cc.kick:
		case <-cc.done:
			return
		}
		runtime.Gosched()
		cc.qmu.Lock()
		buf, cc.queue = cc.queue, buf[:0]
		cc.qmu.Unlock()
		if len(buf) == 0 {
			continue
		}
		cc.wmu.Lock()
		cc.c.SetWriteDeadline(time.Now().Add(cc.timeout))
		_, err := cc.c.Write(buf)
		cc.wmu.Unlock()
		if err != nil {
			cc.fail(fmt.Errorf("wire: write: %w", err))
			return
		}
	}
}

// forget abandons a pending request id (timeout or write failure); a
// late response for it is dropped by readLoop.
func (cc *clientConn) forget(id uint32) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}
