// Package wire implements the pipelined binary decision protocol: a
// dependency-free, length-prefixed frame format that carries
// authorization checks between an enforcement point and the engine at a
// fraction of the HTTP/JSON cost. The engine's in-process check path
// runs in nanoseconds (DESIGN §5.4); this package is the transport that
// keeps up with it — and the substrate internal/replicate's
// leader/replica policy distribution rides on.
//
// # Frame layout
//
// Every message is one frame: a fixed 12-byte header followed by an
// opcode-specific payload. All integers are big-endian.
//
//	offset  size  field
//	0       2     magic 0xAC 0x77
//	2       1     protocol version (currently 1)
//	3       1     opcode (response frames set bit 0x80)
//	4       4     request id (chosen by the requester, echoed verbatim)
//	8       4     payload length
//	12      n     payload
//
// Strings inside payloads are uvarint-length-prefixed UTF-8. A CHECK
// request carries (session, operation, object); the server resolves the
// session's user itself, exactly like GET /v1/check. A CHECK_BATCH
// request carries a uvarint count then that many triples; its response
// carries the count then one verdict byte per check, in request order.
// PING echoes its payload. POLICY_VERSION responds with the 8-byte
// policy snapshot epoch. SUBSCRIBE (empty payload) registers the
// connection for epoch pushes and responds with the current 8-byte push
// epoch. EPOCH_PUSH is the one server-originated frame: unsolicited,
// request id 0, RespFlag clear, payload the new 8-byte push epoch —
// sent to every subscribed connection whenever a policy- or
// session-grade change invalidates cached verdicts. SYNC is the
// replication pull: the request carries the replica's name and its
// applied epoch, the response the leader's epoch, a 32-byte SHA-256 of
// the snapshot payload, and the uvarint-length-prefixed payload itself
// (the serialized policy source + compiled state); a replica verifies
// the hash before installing anything, so a truncated or corrupted
// transfer is structurally un-appliable. ERROR (0xFF, response-only)
// carries a code byte and a message string, tagged with the failing
// request's id.
//
// CHECK and CHECK_BATCH requests may additionally set the TRACE bit
// (0x40) on the opcode byte; the payload is then prefixed with a raw
// 16-byte trace id, and the server — when tracing is configured —
// retains the decision's cascade trace under that id for later
// retrieval (/v1/traces/{id}). The response echoes the flagged opcode
// with RespFlag set and is otherwise shaped exactly like the unflagged
// response: the trace stays server-side. Within a traced CHECK_BATCH
// only the first tuple is traced; the remainder keeps the batch-native
// path.
//
// A CHECK request may instead set the CACHE bit (0x20): the request
// payload is unchanged, but the response verdict byte becomes a flag
// pair — bit 0 allow, bit 1 cacheable — where cacheable means the
// verdict depends only on the published policy/session state tagged by
// the push epoch (the fastpath CA1 classification), so an embedded
// client cache may serve it locally until the next EPOCH_PUSH.
//
// # Versioning rules
//
// The magic pair and version byte are validated on every frame. A
// reader that sees an unknown version (or bad magic, or a frame larger
// than its configured maximum) cannot resynchronize a byte stream it no
// longer understands, so it must drop the connection; version
// negotiation is "reconnect speaking an older version". Adding opcodes
// is backward compatible (unknown opcodes get an ERROR response and the
// connection survives); changing the header or an existing payload
// shape requires a version bump.
//
// # Pipelining and backpressure
//
// Connections are full-duplex pipes of frames: a requester may keep
// many request ids in flight and responses may arrive in any order —
// the request id, not arrival order, correlates them. The server bounds
// the damage a fast or hostile client can do with three controls:
// a per-connection in-flight cap (the reader stops consuming frames
// until responses drain, pushing back through TCP), a read deadline
// armed before every read that can block (a trickling writer is
// disconnected), and a write deadline before every socket write.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol constants.
const (
	magic0 = 0xAC
	magic1 = 0x77

	// Version is the protocol revision this package speaks. Frames
	// carrying any other version are rejected and the connection dropped.
	Version = 1

	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 12
)

// Opcodes. Response frames carry the request opcode with RespFlag set;
// OpError is response-only.
const (
	// OpCheck is one access check: payload (session, operation, object),
	// response payload a single verdict byte (1 allow, 0 deny).
	OpCheck byte = 0x01
	// OpCheckBatch is many access checks in one frame: payload a uvarint
	// count then count triples, response the count then one verdict byte
	// per check in request order.
	OpCheckBatch byte = 0x02
	// OpPing is a liveness and latency probe; the payload is echoed.
	OpPing byte = 0x03
	// OpPolicyVersion asks for the policy snapshot epoch; the response
	// payload is the epoch as 8 big-endian bytes.
	OpPolicyVersion byte = 0x04
	// OpSubscribe registers the connection for epoch pushes: empty
	// request payload, response the current push epoch as 8 big-endian
	// bytes. The registration lives as long as the connection.
	OpSubscribe byte = 0x05
	// OpEpochPush is the unsolicited server-to-client push a subscribed
	// connection receives on every epoch bump: request id 0, RespFlag
	// clear, payload the new push epoch as 8 big-endian bytes.
	OpEpochPush byte = 0x06
	// OpSync pulls a policy-sync snapshot from a leader: request payload
	// the replica's name then its applied epoch, response payload the
	// leader's epoch, the snapshot's SHA-256, and the length-prefixed
	// snapshot bytes. Answered UNSUPPORTED by non-leader backends.
	OpSync byte = 0x07

	// RespFlag marks a frame as the response to the request opcode in
	// the low bits.
	RespFlag byte = 0x80

	// TraceFlag, set on a CHECK or CHECK_BATCH request opcode, prefixes
	// the payload with a raw 16-byte trace id the server records the
	// decision's cascade trace under. Adding the flag is an additive
	// protocol change: servers predating it answer flagged opcodes with
	// an UnknownOp ERROR and the connection survives.
	TraceFlag byte = 0x40

	// CacheFlag, set on a CHECK request opcode, widens the response
	// verdict byte to a flag pair: bit 0 allow, bit 1 cacheable (safe
	// for an epoch-tagged client cache until the next EPOCH_PUSH). Like
	// TraceFlag this is additive: servers predating it answer with an
	// UnknownOp ERROR and the connection survives.
	CacheFlag byte = 0x20

	// OpError is the response to a request the server could not serve:
	// payload one code byte then a message string.
	OpError byte = 0xFF
)

// TraceIDSize is the raw trace-id length a TraceFlag payload prefix
// carries.
const TraceIDSize = 16

// Error codes carried by OpError payloads.
const (
	// ErrCodeBadRequest: the request payload did not decode.
	ErrCodeBadRequest byte = 1
	// ErrCodeUnknownOp: the request opcode is not known to this server.
	ErrCodeUnknownOp byte = 2
	// ErrCodeUnsupported: the opcode is known but this server's backend
	// cannot serve it (e.g. SUBSCRIBE without a push-capable backend).
	ErrCodeUnsupported byte = 3
	// ErrCodeSubscribeLimit: the server's subscriber cap is reached.
	ErrCodeSubscribeLimit byte = 4
)

// Limits.
const (
	// DefaultMaxFrame bounds a frame (header + payload) unless
	// configured otherwise.
	DefaultMaxFrame = 1 << 20
	// MaxBatch bounds the check count of one CHECK_BATCH frame.
	MaxBatch = 8192
	// maxStringLen bounds one payload string; identifiers are short.
	maxStringLen = 1 << 16

	// MaxSyncData bounds the snapshot payload of one SYNC response —
	// well past DefaultMaxFrame, because a full policy + session state
	// snapshot legitimately outgrows a check frame. Sync endpoints must
	// therefore configure their frame limit to at least
	// MaxSyncData + SyncHashSize + HeaderSize + some slack.
	MaxSyncData = 1 << 26

	// SyncHashSize is the content-hash length of a SYNC response
	// (SHA-256).
	SyncHashSize = 32
)

// Codec errors. Decoder errors other than io errors mean the stream is
// unusable and the connection must be dropped; payload Consume errors
// condemn only the one frame.
var (
	ErrBadMagic      = errors.New("wire: bad frame magic")
	ErrVersion       = errors.New("wire: unsupported protocol version")
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrBadPayload    = errors.New("wire: malformed payload")
)

// OpName returns the stable label of an opcode (response, trace and
// cache flags ignored) for metrics and logs.
func OpName(op byte) string {
	if op == OpError {
		return "error"
	}
	switch op &^ (RespFlag | TraceFlag | CacheFlag) {
	case OpCheck:
		return "check"
	case OpCheckBatch:
		return "check_batch"
	case OpPing:
		return "ping"
	case OpPolicyVersion:
		return "policy_version"
	case OpSubscribe:
		return "subscribe"
	case OpEpochPush:
		return "epoch_push"
	case OpSync:
		return "sync"
	}
	return "unknown"
}

// Frame is one decoded protocol frame. Payload aliases the Decoder's
// internal buffer and is valid only until the next call to Next.
type Frame struct {
	Op      byte
	ID      uint32
	Payload []byte
}

// AppendFrame appends a complete frame (header + payload) to dst and
// returns the extended slice.
func AppendFrame(dst []byte, op byte, id uint32, payload []byte) []byte {
	dst = append(dst, magic0, magic1, Version, op)
	dst = binary.BigEndian.AppendUint32(dst, id)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// Decoder reads frames from a byte stream, reusing one payload buffer
// across frames (the returned Frame.Payload is only valid until the
// next call).
type Decoder struct {
	r   io.Reader
	max int
	buf []byte
	hdr [HeaderSize]byte
}

// NewDecoder wraps r with a frame decoder enforcing maxFrame (<= 0
// means DefaultMaxFrame). r should be buffered by the caller if the
// underlying stream is a socket.
func NewDecoder(r io.Reader, maxFrame int) *Decoder {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Decoder{r: r, max: maxFrame}
}

// Next reads and validates one frame. io.EOF is returned only on a
// clean boundary (no partial frame); a frame cut short decodes to
// io.ErrUnexpectedEOF. Any non-io error means the stream is
// desynchronized or hostile and the connection should be closed.
func (d *Decoder) Next() (Frame, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		// ReadFull returns io.EOF only at a clean frame boundary (zero
		// bytes read) and io.ErrUnexpectedEOF for a cut-off header.
		return Frame{}, err
	}
	if d.hdr[0] != magic0 || d.hdr[1] != magic1 {
		return Frame{}, ErrBadMagic
	}
	if d.hdr[2] != Version {
		return Frame{}, fmt.Errorf("%w: got %d, want %d", ErrVersion, d.hdr[2], Version)
	}
	n := binary.BigEndian.Uint32(d.hdr[8:12])
	if uint64(n)+HeaderSize > uint64(d.max) {
		return Frame{}, fmt.Errorf("%w: %d payload bytes (max frame %d)", ErrFrameTooLarge, n, d.max)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	buf := d.buf[:n]
	if _, err := io.ReadFull(d.r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{
		Op:      d.hdr[3],
		ID:      binary.BigEndian.Uint32(d.hdr[4:8]),
		Payload: buf,
	}, nil
}

// ---------------------------------------------------------------------------
// Payload codecs

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ConsumeString decodes one length-prefixed string from the front of b
// and returns the remainder.
func ConsumeString(b []byte) (s string, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > maxStringLen {
		return "", nil, ErrBadPayload
	}
	b = b[w:]
	if uint64(len(b)) < n {
		return "", nil, ErrBadPayload
	}
	return string(b[:n]), b[n:], nil
}

// CheckRequest is one access check as carried on the wire.
type CheckRequest struct {
	Session   string
	Operation string
	Object    string
	// Trace is the frame's trace id on the first request of a
	// TRACE-flagged CHECK or CHECK_BATCH, zero elsewhere. The frame
	// carries it once, ahead of the requests: AppendCheckBatch does not
	// encode it. Client.CheckMany sets the TRACE flag and sends the id
	// when the first request's Trace is nonzero.
	Trace [TraceIDSize]byte
}

// AppendCheck appends a CHECK request payload.
func AppendCheck(dst []byte, session, operation, object string) []byte {
	dst = AppendString(dst, session)
	dst = AppendString(dst, operation)
	return AppendString(dst, object)
}

// ConsumeCheck decodes a CHECK request payload; trailing bytes are an
// error.
func ConsumeCheck(b []byte) (session, operation, object string, err error) {
	if session, b, err = ConsumeString(b); err != nil {
		return "", "", "", err
	}
	if operation, b, err = ConsumeString(b); err != nil {
		return "", "", "", err
	}
	if object, b, err = ConsumeString(b); err != nil {
		return "", "", "", err
	}
	if len(b) != 0 {
		return "", "", "", ErrBadPayload
	}
	return session, operation, object, nil
}

// AppendCheckBatch appends a CHECK_BATCH request payload.
func AppendCheckBatch(dst []byte, reqs []CheckRequest) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(reqs)))
	for _, r := range reqs {
		dst = AppendCheck(dst, r.Session, r.Operation, r.Object)
	}
	return dst
}

// ConsumeCheckBatch decodes a CHECK_BATCH request payload, appending
// the requests to into (reused when capacity allows).
func ConsumeCheckBatch(b []byte, into []CheckRequest) ([]CheckRequest, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > MaxBatch {
		return nil, ErrBadPayload
	}
	b = b[w:]
	reqs := into[:0]
	for i := uint64(0); i < n; i++ {
		var r CheckRequest
		var err error
		if r.Session, b, err = ConsumeString(b); err != nil {
			return nil, err
		}
		if r.Operation, b, err = ConsumeString(b); err != nil {
			return nil, err
		}
		if r.Object, b, err = ConsumeString(b); err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
	if len(b) != 0 {
		return nil, ErrBadPayload
	}
	return reqs, nil
}

// AppendVerdicts appends a CHECK_BATCH response payload: the count then
// one byte per verdict.
func AppendVerdicts(dst []byte, verdicts []bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(verdicts)))
	for _, v := range verdicts {
		if v {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// ConsumeVerdicts decodes a CHECK_BATCH response payload, appending
// the verdicts to into (reused when capacity allows).
func ConsumeVerdicts(b []byte, into []bool) ([]bool, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > MaxBatch {
		return nil, ErrBadPayload
	}
	b = b[w:]
	if uint64(len(b)) != n {
		return nil, ErrBadPayload
	}
	verdicts := into[:0]
	for _, v := range b {
		if v > 1 {
			return nil, ErrBadPayload
		}
		verdicts = append(verdicts, v == 1)
	}
	return verdicts, nil
}

// AppendTraceID appends the raw 16-byte trace-id prefix a TraceFlag
// payload starts with.
func AppendTraceID(dst []byte, tid [TraceIDSize]byte) []byte {
	return append(dst, tid[:]...)
}

// ConsumeTraceID splits the 16-byte trace-id prefix off a TraceFlag
// payload.
func ConsumeTraceID(b []byte) (tid [TraceIDSize]byte, rest []byte, err error) {
	if len(b) < TraceIDSize {
		return tid, nil, ErrBadPayload
	}
	copy(tid[:], b)
	return tid, b[TraceIDSize:], nil
}

// AppendErrorPayload appends an ERROR response payload.
func AppendErrorPayload(dst []byte, code byte, msg string) []byte {
	dst = append(dst, code)
	return AppendString(dst, msg)
}

// ConsumeErrorPayload decodes an ERROR response payload.
func ConsumeErrorPayload(b []byte) (code byte, msg string, err error) {
	if len(b) < 1 {
		return 0, "", ErrBadPayload
	}
	code = b[0]
	msg, rest, err := ConsumeString(b[1:])
	if err != nil {
		return 0, "", err
	}
	if len(rest) != 0 {
		return 0, "", ErrBadPayload
	}
	return code, msg, nil
}

// AppendEpoch appends an 8-byte epoch payload, as carried by
// POLICY_VERSION and SUBSCRIBE responses and EPOCH_PUSH frames.
func AppendEpoch(dst []byte, epoch uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, epoch)
}

// ConsumeEpoch decodes an 8-byte epoch payload.
func ConsumeEpoch(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, ErrBadPayload
	}
	return binary.BigEndian.Uint64(b), nil
}

// Cache-verdict flag bits, as carried in the one-byte response payload
// of a CacheFlag CHECK.
const (
	cacheVerdictAllow     byte = 1 << 0
	cacheVerdictCacheable byte = 1 << 1
)

// AppendCacheVerdict appends a CacheFlag CHECK response payload: one
// byte with bit 0 allow, bit 1 cacheable.
func AppendCacheVerdict(dst []byte, allowed, cacheable bool) []byte {
	var v byte
	if allowed {
		v |= cacheVerdictAllow
	}
	if cacheable {
		v |= cacheVerdictCacheable
	}
	return append(dst, v)
}

// ConsumeCacheVerdict decodes a CacheFlag CHECK response payload.
func ConsumeCacheVerdict(b []byte) (allowed, cacheable bool, err error) {
	if len(b) != 1 || b[0] > cacheVerdictAllow|cacheVerdictCacheable {
		return false, false, ErrBadPayload
	}
	return b[0]&cacheVerdictAllow != 0, b[0]&cacheVerdictCacheable != 0, nil
}

// AppendSyncRequest appends a SYNC request payload: the replica's name
// and the epoch it has applied (0 when it has never synced).
func AppendSyncRequest(dst []byte, replica string, applied uint64) []byte {
	dst = AppendString(dst, replica)
	return AppendEpoch(dst, applied)
}

// ConsumeSyncRequest decodes a SYNC request payload; trailing bytes are
// an error.
func ConsumeSyncRequest(b []byte) (replica string, applied uint64, err error) {
	replica, b, err = ConsumeString(b)
	if err != nil {
		return "", 0, err
	}
	applied, err = ConsumeEpoch(b)
	if err != nil {
		return "", 0, err
	}
	return replica, applied, nil
}

// SyncState is a SYNC response: one policy-sync snapshot pinned to the
// push epoch it was exported at, content-addressed by its SHA-256.
type SyncState struct {
	Epoch uint64
	Hash  [SyncHashSize]byte
	Data  []byte
}

// AppendSyncState appends a SYNC response payload: the epoch, the
// 32-byte content hash, then the uvarint-length-prefixed snapshot.
func AppendSyncState(dst []byte, st SyncState) []byte {
	dst = AppendEpoch(dst, st.Epoch)
	dst = append(dst, st.Hash[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(st.Data)))
	return append(dst, st.Data...)
}

// ConsumeSyncState decodes a SYNC response payload. The snapshot bytes
// are copied out of b (frame payloads alias a reused decode buffer and
// a snapshot outlives the frame that carried it); trailing bytes are an
// error. The hash is NOT verified here — the replica applies that check
// against the copied bytes before installing.
func ConsumeSyncState(b []byte) (SyncState, error) {
	var st SyncState
	if len(b) < 8+SyncHashSize {
		return SyncState{}, ErrBadPayload
	}
	var err error
	if st.Epoch, err = ConsumeEpoch(b[:8]); err != nil {
		return SyncState{}, err
	}
	copy(st.Hash[:], b[8:8+SyncHashSize])
	rest := b[8+SyncHashSize:]
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > MaxSyncData {
		return SyncState{}, ErrBadPayload
	}
	rest = rest[w:]
	if uint64(len(rest)) != n {
		return SyncState{}, ErrBadPayload
	}
	st.Data = append([]byte(nil), rest...)
	return st, nil
}

// RemoteError is an ERROR frame surfaced to the caller.
type RemoteError struct {
	Code byte
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Msg)
}
