package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Backend is what a wire server enforces against. Implementations must
// be safe for concurrent use; rbacd adapts *activerbac.System. Every
// check reaches the backend as a CheckBatch: a CHECK frame is a batch
// of one. A TRACE-flagged frame's first request carries the frame's
// trace id; a backend that ignores Trace serves the check untraced.
type Backend interface {
	// PolicyEpoch reports the published policy snapshot epoch.
	PolicyEpoch() uint64
	// CheckBatch decides every request of one batch, appending one
	// verdict per request to vs in request order and returning the
	// extended slice (reused when capacity allows). Each check is
	// decided for the session's user, resolved from the session exactly
	// like GET /v1/check.
	CheckBatch(reqs []CheckRequest, vs []bool) []bool
}

// PushBackend is optionally implemented by a Backend with an
// epoch-tagged verdict cache: its epoch bumps can be pushed to
// subscribers for epoch-tagged client caches, and its cache hits can
// be answered on the connection's reader. PushEpoch reports the
// current push epoch — unlike PolicyEpoch it covers session-grade
// changes (role drops, session deletes) as well as policy-grade ones,
// so a bump means any cached verdict may have changed. CheckCacheable
// classifies which verdicts such a cache may keep (the fastpath CA1
// shape: the verdict depends only on state tagged by the push epoch).
// The server detects the upgrade once at construction; without it
// SUBSCRIBE and CacheFlag CHECKs answer an ErrCodeUnsupported ERROR and
// every CHECK goes to the worker pool. The server owns no epoch state
// of its own: the backend's owner calls Server.NotifyEpoch on every
// bump.
type PushBackend interface {
	Backend
	// PushEpoch reports the current push epoch.
	PushEpoch() uint64
	// CheckCacheable decides one access check and reports whether the
	// verdict is safe for an epoch-tagged client cache until the next
	// push.
	CheckCacheable(session, operation, object string) (allowed, cacheable bool)
	// CheckHit reports whether req is an allow the backend serves from
	// its verdict cache without waiting — no lock wait, no queue — and
	// if so counts it exactly as CheckBatch would count the same hit.
	// Only allows are cached, so a hit is also cacheable. The reader
	// calls it on every untraced CHECK and writes a hit's response
	// itself. On false nothing is counted and the check goes to a
	// worker; a backend whose trace sampler picked the check stamps
	// req.Trace, and the worker then decides it traced through
	// CheckBatch, so the sampler is drawn once per check.
	CheckHit(req *CheckRequest) bool
}

// SyncBackend is optionally implemented by a Backend that can serve
// policy-sync snapshots — the leader side of the replication protocol.
// Without it a SYNC request answers an ErrCodeUnsupported ERROR, which
// is how a replica discovers it dialed something that is not a leader.
type SyncBackend interface {
	Backend
	// SyncSnapshot returns the current snapshot for a replica that has
	// applied the given epoch (0 when it has never synced). The
	// implementation owns caching — a fleet resyncing after one push
	// should serialize once, not once per replica.
	SyncSnapshot(replica string, applied uint64) (SyncState, error)
}

// ReplicaTracker is optionally implemented by a SyncBackend that keeps
// a replica registry: the server reports when a connection that issued
// SYNC requests closes, so the registry can mark the replica
// disconnected.
type ReplicaTracker interface {
	ReplicaDisconnected(replica string)
}

// Instruments are optional transport metrics hooks; any field may be
// nil. rbacd wires them to the activerbac_wire_* metric families.
type Instruments struct {
	// Request is called once per decoded request frame, labelled by
	// opcode.
	Request func(opcode string)
	// Error is called once per ERROR frame sent, labelled by the
	// offending request's opcode.
	Error func(opcode string)
	// Inflight tracks the server-wide in-flight request delta (+1 on
	// admit, -1 after the response is written).
	Inflight func(delta float64)
	// RTT observes the server-side round trip of one request frame —
	// decode to response write — in seconds, labelled by opcode. Wiring
	// it costs two wall-clock reads per request.
	RTT func(opcode string, seconds float64)
	// Push is called once per EPOCH_PUSH frame written to a subscriber.
	Push func()
	// Subscribers tracks the server-wide subscriber-count delta (+1 on
	// subscribe, -1 when a subscribed connection closes).
	Subscribers func(delta float64)
	// Write is called once per socket write of response bytes; with
	// Request it gives the frames answered per write.
	Write func()
}

// ServerOptions tunes a Server; the zero value selects the defaults.
type ServerOptions struct {
	// MaxFrame bounds one frame (header + payload); larger frames drop
	// the connection. Default DefaultMaxFrame.
	MaxFrame int
	// MaxInFlight caps requests admitted but not yet responded to, per
	// connection: once reached the reader stops consuming frames and
	// the kernel's TCP window pushes back on the client. Default 256.
	MaxInFlight int
	// ReadTimeout bounds how long one whole frame may take to arrive
	// (it doubles as the idle timeout; pipelined clients ping to keep
	// quiet connections alive). Default 3 minutes; <= 0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write. Default 10 seconds;
	// <= 0 disables.
	WriteTimeout time.Duration
	// Workers is the per-connection handler pool executing the checks
	// the reader cannot answer from the backend's verdict cache —
	// misses, traced CHECKs and every CHECK_BATCH — and therefore the
	// out-of-order window of one connection's misses: a hit behind a
	// parked miss is answered by the reader and never waits for a
	// worker. Default min(GOMAXPROCS, MaxInFlight).
	Workers int
	// MaxSubscribers caps connections registered for epoch pushes;
	// SUBSCRIBE past the cap answers an ErrCodeSubscribeLimit ERROR.
	// <= 0 means unlimited.
	MaxSubscribers int
	// Instruments hooks transport metrics; nil disables.
	Instruments *Instruments
}

const (
	defaultMaxInFlight  = 256
	defaultReadTimeout  = 3 * time.Minute
	defaultWriteTimeout = 10 * time.Second
)

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = defaultMaxInFlight
	}
	if o.ReadTimeout == 0 {
		o.ReadTimeout = defaultReadTimeout
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = defaultWriteTimeout
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers > o.MaxInFlight {
		o.Workers = o.MaxInFlight
	}
	return o
}

// ErrServerClosed is returned by Serve after Close or Shutdown.
var ErrServerClosed = errors.New("wire: server closed")

// Server speaks the wire protocol on any number of listeners. All
// methods are safe for concurrent use.
type Server struct {
	backend Backend
	// push is the epoch-push upgrade, asserted once at construction;
	// nil answers SUBSCRIBE / CacheFlag CHECKs with ErrCodeUnsupported.
	push PushBackend
	// syncb is the replication upgrade, asserted once at construction;
	// nil answers SYNC with ErrCodeUnsupported. tracker is its optional
	// replica-registry refinement.
	syncb   SyncBackend
	tracker ReplicaTracker
	opts    ServerOptions

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*srvConn]struct{}
	subs   map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a server around backend; opts may be nil.
func NewServer(backend Backend, opts *ServerOptions) *Server {
	var o ServerOptions
	if opts != nil {
		o = *opts
	}
	push, _ := backend.(PushBackend)
	syncb, _ := backend.(SyncBackend)
	tracker, _ := backend.(ReplicaTracker)
	return &Server{
		backend: backend,
		push:    push,
		syncb:   syncb,
		tracker: tracker,
		opts:    o.withDefaults(),
		lns:     map[net.Listener]struct{}{},
		conns:   map[*srvConn]struct{}{},
		subs:    map[*srvConn]struct{}{},
	}
}

// NotifyEpoch fans the new push epoch out to every subscribed
// connection. Delivery is coalescing and non-blocking — each
// subscriber holds a one-slot pending-push latch carrying only the
// latest epoch, so a burst of bumps collapses into one frame and a
// slow subscriber can never block the caller (it is bounded by the
// write deadline and disconnected if it cannot drain). Safe to call
// from policy-mutation hooks.
func (s *Server) NotifyEpoch(epoch uint64) {
	s.mu.Lock()
	for sc := range s.subs {
		sc.notifyPush(epoch)
	}
	s.mu.Unlock()
}

// Serve accepts connections on ln until Close or Shutdown, then
// returns ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		sc := &srvConn{srv: s, c: c, pushCh: make(chan struct{}, 1)}
		sc.wb.init(c, s.opts.WriteTimeout, s.opts.Instruments)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go sc.run()
	}
}

// Shutdown stops accepting connections and lets every admitted request
// finish: each connection stops reading new frames, drains its
// in-flight work, flushes the responses and closes. It returns when
// all connections have drained or ctx expires (remaining connections
// are then closed hard). Mirrors http.Server.Shutdown for rbacd's
// signal path.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.stopReading()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		return errors.New("wire: shutdown deadline exceeded")
	}
}

// Close stops the server immediately: listeners and connections are
// closed, in-flight requests are abandoned.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	s.mu.Unlock()
	s.closeConns()
	s.wg.Wait()
	return nil
}

func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.c.Close()
	}
}

// srvConn is one accepted connection: a reader decoding frames,
// enforcing the in-flight cap and answering verdict-cache hits itself,
// a worker pool executing the other checks (the source of out-of-order
// responses), and a writer goroutine for the workers' responses and
// the pushes. Reader and writer share one buffered response stream.
type srvConn struct {
	srv *Server
	c   net.Conn
	wb  outbuf
	// stopped, set by stopReading, makes the next (or current) blocking
	// frame read fail without closing the socket, so drained responses
	// still flush.
	stopped atomic.Bool
	// pushEpoch and pushCh are the pending-push latch: NotifyEpoch
	// stores the latest epoch and arms the one-slot channel, the writer
	// drains it and emits one EPOCH_PUSH frame. A burst of bumps
	// between two writer wakeups collapses into one push carrying the
	// newest epoch.
	pushEpoch atomic.Uint64
	pushCh    chan struct{}
	// replicaName is the name carried by the last SYNC request on this
	// connection; written only by the read loop and read only after it
	// returns (connection teardown), so it needs no lock.
	replicaName string
}

// notifyPush latches epoch for the writer without ever blocking.
func (sc *srvConn) notifyPush(epoch uint64) {
	sc.pushEpoch.Store(epoch)
	select {
	case sc.pushCh <- struct{}{}:
	default: // a push is already pending; it will carry the new epoch
	}
}

// request is one decoded unit of work handed to the worker pool.
type request struct {
	op    byte
	id    uint32
	batch []CheckRequest // the checks; one for OpCheck
	start time.Time      // decode instant; zero unless the RTT hook is wired
}

// response is one frame queued for the writer.
type response struct {
	op      byte
	id      uint32
	payload []byte
	start   time.Time // propagated request.start for the RTT hook
}

// Static single-verdict payloads (read-only).
var (
	verdictAllow = []byte{1}
	verdictDeny  = []byte{0}
	// cacheVerdicts indexes the four CacheFlag verdict bytes by their
	// flag-pair value (bit 0 allow, bit 1 cacheable).
	cacheVerdicts = [4][]byte{{0}, {1}, {2}, {3}}
)

func (sc *srvConn) stopReading() {
	sc.stopped.Store(true)
	sc.c.SetReadDeadline(time.Now())
}

func (sc *srvConn) run() {
	opts := sc.srv.opts
	ins := opts.Instruments
	defer sc.srv.wg.Done()
	defer func() {
		sc.srv.mu.Lock()
		delete(sc.srv.conns, sc)
		_, wasSub := sc.srv.subs[sc]
		delete(sc.srv.subs, sc)
		sc.srv.mu.Unlock()
		if wasSub && ins != nil && ins.Subscribers != nil {
			ins.Subscribers(-1)
		}
		if sc.replicaName != "" && sc.srv.tracker != nil {
			sc.srv.tracker.ReplicaDisconnected(sc.replicaName)
		}
		sc.c.Close()
	}()

	// sem admits at most MaxInFlight requests between decode and
	// response write, inline hits included; out has the same capacity,
	// so enqueues below never block longer than the writer takes to
	// drain.
	sem := make(chan struct{}, opts.MaxInFlight)
	out := make(chan response, opts.MaxInFlight)
	work := make(chan request, opts.MaxInFlight)

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		sc.writeLoop(out, sem, ins)
	}()
	var workerWG sync.WaitGroup
	for i := 0; i < opts.Workers; i++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for req := range work {
				out <- sc.execute(req)
			}
		}()
	}

	sc.readLoop(sem, out, work, ins)

	// Drain: no more frames will be admitted; let the workers finish
	// what was, then let the writer flush it.
	close(work)
	workerWG.Wait()
	close(out)
	writerWG.Wait()
}

// readLoop decodes frames, admits them against the in-flight cap and
// dispatches: a CHECK the backend answers from its verdict cache is
// written straight into the response stream, other cheap opcodes are
// answered onto out, and the remaining checks go to the worker pool.
// The reader's responses reach the socket in one flush, once no whole
// frame is left in its input buffer (or before it waits on the
// in-flight cap), so a burst of pipelined hits shares one write.
// Returns on any read or protocol error, flushing first.
func (sc *srvConn) readLoop(sem chan struct{}, out chan<- response, work chan<- request, ins *Instruments) {
	opts := sc.srv.opts
	push := sc.srv.push
	br := bufio.NewReaderSize(sc.c, 32<<10)
	dec := NewDecoder(br, opts.MaxFrame)
	defer sc.wb.flush()
	// hit is the check handed to CheckHit, reused across frames.
	var hit CheckRequest
	for {
		if !frameBuffered(br) {
			// The next frame needs a read, which may block: answers
			// already written go out first, and the read is bounded.
			sc.wb.flush()
			if opts.ReadTimeout > 0 {
				sc.c.SetReadDeadline(time.Now().Add(opts.ReadTimeout))
			}
		}
		// Checked after arming the deadline: a concurrent stopReading
		// either is observed here or has already expired the deadline,
		// so no read below can outlive a drain request.
		if sc.stopped.Load() {
			return
		}
		f, err := dec.Next()
		if err != nil {
			// Clean EOF, deadline, protocol garbage: all end the reading
			// half. Responses already admitted still drain and flush.
			return
		}
		if ins != nil && ins.Request != nil {
			ins.Request(OpName(f.Op))
		}
		// Backpressure: block until a response slot frees up. One slot is
		// released per response written, so a stalled or slow client
		// throttles its own request stream via TCP. Before waiting, the
		// reader's own answers go out: they must not wait for a miss.
		select {
		case sem <- struct{}{}:
		default:
			sc.wb.flush()
			sem <- struct{}{}
		}
		if ins != nil && ins.Inflight != nil {
			ins.Inflight(+1)
		}
		var start time.Time
		if ins != nil && ins.RTT != nil {
			start = time.Now()
		}
		switch f.Op {
		case OpPing:
			// Echo. The payload aliases the decoder buffer; copy it.
			var echo []byte
			if len(f.Payload) > 0 {
				echo = append([]byte(nil), f.Payload...)
			}
			out <- response{op: OpPing | RespFlag, id: f.ID, payload: echo, start: start}
		case OpPolicyVersion:
			out <- response{op: OpPolicyVersion | RespFlag, id: f.ID,
				payload: AppendEpoch(nil, sc.srv.backend.PolicyEpoch()), start: start}
		case OpSubscribe:
			out <- sc.subscribe(f, start, ins)
		case OpSync:
			out <- sc.syncResponse(f, start, ins)
		case OpCheck, OpCheck | TraceFlag, OpCheck | CacheFlag:
			payload := f.Payload
			req := request{op: f.Op, id: f.ID, start: start}
			if f.Op&CacheFlag != 0 && push == nil {
				out <- sc.errorResponse(f, ErrCodeUnsupported,
					errors.New("wire: backend does not push epochs"), ins)
				continue
			}
			var tid [TraceIDSize]byte
			if f.Op&TraceFlag != 0 {
				var err error
				if tid, payload, err = ConsumeTraceID(payload); err != nil {
					out <- sc.errorResponse(f, ErrCodeBadRequest, err, ins)
					continue
				}
			}
			session, operation, object, err := ConsumeCheck(payload)
			if err != nil {
				out <- sc.errorResponse(f, ErrCodeBadRequest, err, ins)
				continue
			}
			hit = CheckRequest{Session: session, Operation: operation, Object: object, Trace: tid}
			if f.Op&TraceFlag == 0 && push != nil && push.CheckHit(&hit) {
				v := verdictAllow
				if f.Op&CacheFlag != 0 {
					v = cacheVerdicts[cacheVerdictAllow|cacheVerdictCacheable]
				}
				sc.wb.write(f.Op|RespFlag, f.ID, v, false)
				answered(f.Op, start, sem, ins)
				continue
			}
			req.batch = []CheckRequest{hit}
			work <- req
		case OpCheckBatch, OpCheckBatch | TraceFlag:
			payload := f.Payload
			req := request{op: f.Op, id: f.ID, start: start}
			var tid [TraceIDSize]byte
			if f.Op&TraceFlag != 0 {
				var err error
				if tid, payload, err = ConsumeTraceID(payload); err != nil {
					out <- sc.errorResponse(f, ErrCodeBadRequest, err, ins)
					continue
				}
			}
			batch, err := ConsumeCheckBatch(payload, nil)
			if err != nil {
				out <- sc.errorResponse(f, ErrCodeBadRequest, err, ins)
				continue
			}
			if len(batch) > 0 {
				batch[0].Trace = tid
			}
			req.batch = batch
			work <- req
		default:
			out <- sc.errorResponse(f, ErrCodeUnknownOp,
				errors.New("wire: unknown opcode"), ins)
		}
	}
}

func (sc *srvConn) errorResponse(f Frame, code byte, err error, ins *Instruments) response {
	if ins != nil && ins.Error != nil {
		ins.Error(OpName(f.Op))
	}
	return response{op: OpError, id: f.ID, payload: AppendErrorPayload(nil, code, err.Error())}
}

// subscribe registers the connection for epoch pushes and answers with
// the current push epoch. Registration happens before the epoch is
// read, so a bump landing in between is delivered as a push as well —
// the subscriber can observe an epoch twice but never miss one.
func (sc *srvConn) subscribe(f Frame, start time.Time, ins *Instruments) response {
	if len(f.Payload) != 0 {
		return sc.errorResponse(f, ErrCodeBadRequest,
			errors.New("wire: SUBSCRIBE carries no payload"), ins)
	}
	pb := sc.srv.push
	if pb == nil {
		return sc.errorResponse(f, ErrCodeUnsupported,
			errors.New("wire: backend does not push epochs"), ins)
	}
	sc.srv.mu.Lock()
	_, already := sc.srv.subs[sc]
	if !already && sc.srv.opts.MaxSubscribers > 0 &&
		len(sc.srv.subs) >= sc.srv.opts.MaxSubscribers {
		limit := sc.srv.opts.MaxSubscribers
		sc.srv.mu.Unlock()
		return sc.errorResponse(f, ErrCodeSubscribeLimit,
			fmt.Errorf("wire: subscriber limit %d reached", limit), ins)
	}
	sc.srv.subs[sc] = struct{}{}
	sc.srv.mu.Unlock()
	if !already && ins != nil && ins.Subscribers != nil {
		ins.Subscribers(+1)
	}
	return response{op: OpSubscribe | RespFlag, id: f.ID,
		payload: AppendEpoch(nil, pb.PushEpoch()), start: start}
}

// syncResponse serves one SYNC request inline on the read loop: the
// backend caches the encoded snapshot per epoch, so the cost here is
// one payload copy, and ordering sync responses with the frames around
// them keeps the protocol simple. Backend failures condemn the request,
// not the connection.
func (sc *srvConn) syncResponse(f Frame, start time.Time, ins *Instruments) response {
	sb := sc.srv.syncb
	if sb == nil {
		return sc.errorResponse(f, ErrCodeUnsupported,
			errors.New("wire: backend does not serve policy sync"), ins)
	}
	replica, applied, err := ConsumeSyncRequest(f.Payload)
	if err != nil {
		return sc.errorResponse(f, ErrCodeBadRequest, err, ins)
	}
	if replica == "" {
		return sc.errorResponse(f, ErrCodeBadRequest,
			errors.New("wire: SYNC needs a replica name"), ins)
	}
	sc.replicaName = replica
	st, err := sb.SyncSnapshot(replica, applied)
	if err != nil {
		return sc.errorResponse(f, ErrCodeBadRequest, err, ins)
	}
	return response{op: OpSync | RespFlag, id: f.ID, payload: AppendSyncState(nil, st), start: start}
}

// verdictBufPool recycles the batch verdict staging slices; workers run
// concurrently, so the buffer cannot live on the connection.
var verdictBufPool = sync.Pool{New: func() any {
	b := make([]bool, 0, 256)
	return &b
}}

// execute runs one check request against the backend: a CACHE-flagged
// CHECK through CheckCacheable unless CheckHit stamped it for tracing,
// every other check frame — a CHECK is a batch of one — through
// CheckBatch. Responses echo the request opcode
// (trace flag included) with RespFlag set; a traced response payload is
// shaped exactly like the untraced one — the trace is retained
// server-side under the request's id.
func (sc *srvConn) execute(req request) response {
	if req.op&CacheFlag != 0 && req.batch[0].Trace == ([TraceIDSize]byte{}) {
		// readLoop admits CacheFlag only when the upgrade exists.
		c := &req.batch[0]
		allowed, cacheable := sc.srv.push.CheckCacheable(c.Session, c.Operation, c.Object)
		var v byte
		if allowed {
			v |= cacheVerdictAllow
		}
		if cacheable {
			v |= cacheVerdictCacheable
		}
		return response{op: req.op | RespFlag, id: req.id, payload: cacheVerdicts[v], start: req.start}
	}
	vb := verdictBufPool.Get().(*[]bool)
	vs := sc.srv.backend.CheckBatch(req.batch, (*vb)[:0])
	var payload []byte
	switch req.op &^ TraceFlag {
	case OpCheck | CacheFlag:
		// A check the backend's sampler picked on the reader, decided
		// traced. Its allow is reported uncacheable: the conservative
		// answer, which costs the client one more round trip.
		payload = cacheVerdicts[0]
		if len(vs) == 1 && vs[0] {
			payload = cacheVerdicts[cacheVerdictAllow]
		}
	case OpCheck:
		payload = verdictDeny
		if len(vs) == 1 && vs[0] {
			payload = verdictAllow
		}
	default:
		payload = AppendVerdicts(make([]byte, 0, len(req.batch)+binary.MaxVarintLen64), vs)
	}
	*vb = vs[:0]
	verdictBufPool.Put(vb)
	return response{op: req.op | RespFlag, id: req.id, payload: payload, start: req.start}
}

// writeLoop writes the workers' responses and the epoch pushes into
// the response stream, flushing only when both queues run dry (write
// coalescing across pipelined responses), and releases one in-flight
// slot per response. Pushes ride the same stream, so they interleave
// with — never corrupt — pipelined responses, and a subscriber too slow
// to drain them hits the write deadline and is disconnected like any
// other stalled client.
func (sc *srvConn) writeLoop(out <-chan response, sem <-chan struct{}, ins *Instruments) {
	var pbuf [8]byte
	for {
		select {
		case resp, ok := <-out:
			if !ok {
				sc.wb.flush()
				return
			}
			sc.wb.write(resp.op, resp.id, resp.payload, len(out) == 0 && len(sc.pushCh) == 0)
			answered(resp.op, resp.start, sem, ins)
		case <-sc.pushCh:
			// The latch holds the newest epoch; bumps since it was armed
			// collapsed into this one frame.
			err := sc.wb.write(OpEpochPush, 0, AppendEpoch(pbuf[:0], sc.pushEpoch.Load()),
				len(out) == 0 && len(sc.pushCh) == 0)
			if err == nil && ins != nil && ins.Push != nil {
				ins.Push()
			}
		}
	}
}

// answered closes the accounting of one admitted request whose
// response is in the response stream: its round trip, the in-flight
// gauge and its in-flight slot.
func answered(op byte, start time.Time, sem <-chan struct{}, ins *Instruments) {
	if ins != nil && ins.RTT != nil && !start.IsZero() {
		ins.RTT(OpName(op), time.Since(start).Seconds())
	}
	if ins != nil && ins.Inflight != nil {
		ins.Inflight(-1)
	}
	<-sem
}

// frameBuffered reports whether br already holds a whole frame, so
// decoding the next frame cannot touch the socket.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < HeaderSize {
		return false
	}
	hdr, _ := br.Peek(HeaderSize)
	return uint64(br.Buffered()) >= HeaderSize+uint64(binary.BigEndian.Uint32(hdr[8:12]))
}

// outbuf is one connection's buffered response stream, shared by the
// reader (its inline hits) and the writer goroutine (everything else);
// mu keeps each frame whole. A write deadline is armed before every
// write that reaches the socket. The first write error closes the
// socket — which also unblocks a reader parked on the in-flight cap —
// and everything after it is discarded.
type outbuf struct {
	mu      sync.Mutex
	c       net.Conn
	bw      *bufio.Writer
	fbuf    []byte
	timeout time.Duration
	err     error
}

// countingWriter calls n once per write to the socket beneath it.
type countingWriter struct {
	net.Conn
	n func()
}

func (w countingWriter) Write(p []byte) (int, error) {
	w.n()
	return w.Conn.Write(p)
}

func (w *outbuf) init(c net.Conn, timeout time.Duration, ins *Instruments) {
	var dst io.Writer = c
	if ins != nil && ins.Write != nil {
		dst = countingWriter{c, ins.Write}
	}
	w.c, w.bw, w.timeout = c, bufio.NewWriterSize(dst, 32<<10), timeout
}

// write appends one frame and, when flush is set, sends everything
// buffered. It returns the stream's sticky write error.
func (w *outbuf) write(op byte, id uint32, payload []byte, flush bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.fbuf = AppendFrame(w.fbuf[:0], op, id, payload)
		if len(w.fbuf) > w.bw.Available() {
			w.arm() // the frame overflows the buffer onto the socket
		}
		_, w.err = w.bw.Write(w.fbuf)
	}
	if flush {
		w.flushLocked()
	}
	w.fail()
	return w.err
}

// flush sends everything buffered.
func (w *outbuf) flush() {
	w.mu.Lock()
	w.flushLocked()
	w.fail()
	w.mu.Unlock()
}

func (w *outbuf) flushLocked() {
	if w.err == nil && w.bw.Buffered() > 0 {
		w.arm()
		w.err = w.bw.Flush()
	}
}

func (w *outbuf) arm() {
	if w.timeout > 0 {
		w.c.SetWriteDeadline(time.Now().Add(w.timeout))
	}
}

// fail closes the socket once a write has failed.
func (w *outbuf) fail() {
	if w.err != nil {
		w.c.Close()
	}
}
