package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzDecoder feeds arbitrary byte streams to the frame decoder: it
// must either yield valid frames or error, and must never panic, hang,
// or over-read. Seeds cover valid frames, every rejection class, and
// back-to-back frames.
func FuzzDecoder(f *testing.F) {
	f.Add(AppendFrame(nil, OpCheck, 1, AppendCheck(nil, "sid", "read", "doc")))
	f.Add(AppendFrame(nil, OpPing, 2, nil))
	f.Add(AppendFrame(nil, OpPolicyVersion|RespFlag, 3, AppendEpoch(nil, 42)))
	f.Add(AppendFrame(AppendFrame(nil, OpPing, 4, []byte("a")), OpPing, 5, []byte("b")))
	bad := AppendFrame(nil, OpCheck, 6, []byte("x"))
	bad[0] = 0 // magic
	f.Add(append([]byte(nil), bad...))
	bad = AppendFrame(nil, OpCheck, 7, []byte("x"))
	bad[2] = 9 // version
	f.Add(append([]byte(nil), bad...))
	f.Add(AppendFrame(nil, OpCheck, 8, make([]byte, 300))[:40])                         // truncated payload
	f.Add([]byte{magic0, magic1, Version})                                              // truncated header
	f.Add([]byte{magic0, magic1, Version, OpCheck, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}) // huge declared length
	f.Add(AppendFrame(nil, OpSubscribe, 9, nil))
	f.Add(AppendFrame(nil, OpEpochPush, 0, AppendEpoch(nil, 42)))
	f.Add(AppendFrame(nil, OpEpochPush, 0, AppendEpoch(nil, 42))[:HeaderSize+3])    // truncated push epoch
	f.Add(AppendFrame(nil, OpCheck|CacheFlag, 10, AppendCheck(nil, "s", "r", "o"))) // CACHE-flagged check
	f.Add(AppendFrame(nil, OpSubscribe|RespFlag|TraceFlag|CacheFlag, 11, nil))      // corrupted flag soup
	f.Add(AppendFrame(nil, OpSync, 12, AppendSyncRequest(nil, "replica-1", 7)))
	syncSt := SyncState{Epoch: 8, Data: []byte(`{"version":1}`)}
	f.Add(AppendFrame(nil, OpSync|RespFlag, 12, AppendSyncState(nil, syncSt)))
	f.Add(AppendFrame(nil, OpSync|RespFlag, 13, AppendSyncState(nil, syncSt))[:HeaderSize+10]) // truncated sync state

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data), 1<<12)
		for i := 0; ; i++ {
			frame, err := dec.Next()
			if err != nil {
				if err == io.EOF && i == 0 && len(data) > 0 {
					t.Fatalf("io.EOF with %d unconsumed bytes", len(data))
				}
				return
			}
			if len(frame.Payload) > 1<<12 {
				t.Fatalf("frame payload %d exceeds the decoder limit", len(frame.Payload))
			}
			if i > len(data)/HeaderSize {
				t.Fatalf("decoded more frames (%d) than the input can hold", i)
			}
		}
	})
}

// FuzzPayloadCodecs throws arbitrary bytes at every payload Consume
// function: errors are fine, panics are not, and anything that decodes
// must survive a re-encode/re-decode with the same value. (Byte-exact
// re-encoding is NOT required — uvarint accepts non-minimal input like
// 0x80 0x00 for zero, which re-encodes shorter.)
func FuzzPayloadCodecs(f *testing.F) {
	f.Add(AppendCheck(nil, "sid", "read", "doc"))
	f.Add(AppendCheckBatch(nil, []CheckRequest{{Session: "a", Operation: "b", Object: "c"}, {}}))
	f.Add(AppendVerdicts(nil, []bool{true, false, true}))
	f.Add(AppendErrorPayload(nil, ErrCodeBadRequest, "bad"))
	f.Add(AppendEpoch(nil, 99))
	f.Add(AppendCacheVerdict(nil, true, true))
	f.Add([]byte{7}) // cache verdict with reserved bits set
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // uvarint overflow
	f.Add(AppendSyncRequest(nil, "replica-1", 7))
	syncSt := SyncState{Epoch: 9, Data: []byte(`{"version":1,"policy":""}`)}
	for i := range syncSt.Data {
		syncSt.Hash[0] += syncSt.Data[i] // any nonzero hash; content is opaque here
	}
	f.Add(AppendSyncState(nil, syncSt))
	corrupt := AppendSyncState(nil, syncSt)
	corrupt[8+3] ^= 0xFF // flip a hash byte: decodes fine, install must reject
	f.Add(corrupt)
	f.Add(AppendSyncState(nil, SyncState{Epoch: 0, Data: syncSt.Data, Hash: syncSt.Hash})) // epoch regression (new leader incarnation)
	f.Add(AppendSyncState(nil, syncSt)[:12])                                               // truncated mid-hash

	f.Add(AppendCheckBatch(nil, []CheckRequest{{Session: "s", Operation: "read", Object: "o1"}, {Session: "s", Operation: "read", Object: "o2"}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The check decoders copy a payload once and slice every field
		// out of the copy: each must agree with a decode that copies
		// field by field, and nothing decoded may change when the
		// payload buffer is overwritten, as the reader's frame buffer is.
		buf := append([]byte(nil), data...)
		sess, op, obj, err := ConsumeCheck(buf)
		rs, ro, rb, rerr := refConsumeCheck(data)
		if (err == nil) != (rerr == nil) || sess != rs || op != ro || obj != rb {
			t.Fatalf("CHECK decode (%q %q %q, %v), reference (%q %q %q, %v)", sess, op, obj, err, rs, ro, rb, rerr)
		}
		reqs, err := ConsumeCheckBatch(buf, nil)
		ref, rerr := refConsumeCheckBatch(data)
		if (err == nil) != (rerr == nil) || len(reqs) != len(ref) {
			t.Fatalf("CHECK_BATCH decode %d requests (%v), reference %d (%v)", len(reqs), err, len(ref), rerr)
		}
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if sess != rs || op != ro || obj != rb {
			t.Fatalf("CHECK fields changed with the payload buffer: (%q %q %q), want (%q %q %q)", sess, op, obj, rs, ro, rb)
		}
		for i := range ref {
			if reqs[i] != ref[i] {
				t.Fatalf("CHECK_BATCH request %d is %+v after the payload buffer changed, reference %+v", i, reqs[i], ref[i])
			}
		}

		if sess, op, obj, err := ConsumeCheck(data); err == nil {
			s2, o2, b2, err := ConsumeCheck(AppendCheck(nil, sess, op, obj))
			if err != nil || s2 != sess || o2 != op || b2 != obj {
				t.Fatalf("CHECK re-decode mismatch: (%q %q %q) -> (%q %q %q, %v)",
					sess, op, obj, s2, o2, b2, err)
			}
		}
		if reqs, err := ConsumeCheckBatch(data, nil); err == nil {
			got, err := ConsumeCheckBatch(AppendCheckBatch(nil, reqs), nil)
			if err != nil || len(got) != len(reqs) {
				t.Fatalf("CHECK_BATCH re-decode: len %d -> %d, %v", len(reqs), len(got), err)
			}
			for i := range reqs {
				if got[i] != reqs[i] {
					t.Fatalf("CHECK_BATCH re-decode req %d: %+v -> %+v", i, reqs[i], got[i])
				}
			}
		}
		if vs, err := ConsumeVerdicts(data, nil); err == nil {
			got, err := ConsumeVerdicts(AppendVerdicts(nil, vs), nil)
			if err != nil || len(got) != len(vs) {
				t.Fatalf("verdicts re-decode: len %d -> %d, %v", len(vs), len(got), err)
			}
			for i := range vs {
				if got[i] != vs[i] {
					t.Fatalf("verdicts re-decode %d: %v -> %v", i, vs[i], got[i])
				}
			}
		}
		if code, msg, err := ConsumeErrorPayload(data); err == nil {
			c2, m2, err := ConsumeErrorPayload(AppendErrorPayload(nil, code, msg))
			if err != nil || c2 != code || m2 != msg {
				t.Fatalf("error re-decode mismatch: (%d %q) -> (%d %q, %v)", code, msg, c2, m2, err)
			}
		}
		if epoch, err := ConsumeEpoch(data); err == nil {
			e2, err := ConsumeEpoch(AppendEpoch(nil, epoch))
			if err != nil || e2 != epoch {
				t.Fatalf("epoch re-decode mismatch: %d -> (%d, %v)", epoch, e2, err)
			}
		}
		if allowed, cacheable, err := ConsumeCacheVerdict(data); err == nil {
			a2, c2, err := ConsumeCacheVerdict(AppendCacheVerdict(nil, allowed, cacheable))
			if err != nil || a2 != allowed || c2 != cacheable {
				t.Fatalf("cache-verdict re-decode mismatch: (%v %v) -> (%v %v, %v)",
					allowed, cacheable, a2, c2, err)
			}
		}
		if replica, applied, err := ConsumeSyncRequest(data); err == nil {
			r2, a2, err := ConsumeSyncRequest(AppendSyncRequest(nil, replica, applied))
			if err != nil || r2 != replica || a2 != applied {
				t.Fatalf("sync-request re-decode mismatch: (%q %d) -> (%q %d, %v)",
					replica, applied, r2, a2, err)
			}
		}
		if st, err := ConsumeSyncState(data); err == nil {
			st2, err := ConsumeSyncState(AppendSyncState(nil, st))
			if err != nil || st2.Epoch != st.Epoch || st2.Hash != st.Hash || !bytes.Equal(st2.Data, st.Data) {
				t.Fatalf("sync-state re-decode mismatch: epoch %d hash %x %d bytes -> (epoch %d hash %x %d bytes, %v)",
					st.Epoch, st.Hash[:4], len(st.Data), st2.Epoch, st2.Hash[:4], len(st2.Data), err)
			}
		}
		if tid, rest, err := ConsumeTraceID(data); err == nil {
			t2, rest2, err := ConsumeTraceID(AppendTraceID(nil, tid))
			if err != nil || t2 != tid || len(rest2) != 0 {
				t.Fatalf("trace-id re-decode mismatch: %v -> (%v, %d rest, %v)", tid, t2, len(rest2), err)
			}
			if len(rest) != len(data)-TraceIDSize {
				t.Fatalf("trace-id rest length %d, want %d", len(rest), len(data)-TraceIDSize)
			}
		}
	})
}

// refConsumeCheck is the reference CHECK decode: each field copied on
// its own by ConsumeString.
func refConsumeCheck(b []byte) (session, operation, object string, err error) {
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

// refConsumeCheckBatch is the reference CHECK_BATCH decode, field by
// field through ConsumeString.
func refConsumeCheckBatch(b []byte) ([]CheckRequest, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > MaxBatch {
		return nil, ErrBadPayload
	}
	b = b[w:]
	var reqs []CheckRequest
	for i := uint64(0); i < n; i++ {
		var r CheckRequest
		var err error
		for _, f := range []*string{&r.Session, &r.Operation, &r.Object} {
			if *f, b, err = ConsumeString(b); err != nil {
				return nil, err
			}
		}
		reqs = append(reqs, r)
	}
	if len(b) != 0 {
		return nil, ErrBadPayload
	}
	return reqs, nil
}

// FuzzCheckRoundTrip fuzzes the structured direction: any triple of
// strings within the length limit must survive encode/decode exactly —
// bare, framed as a CACHE-flagged CHECK, and interleaved with an
// EPOCH_PUSH frame derived from the same input.
func FuzzCheckRoundTrip(f *testing.F) {
	f.Add("sid", "read", "doc")
	f.Add("", "", "")
	f.Add("s\x00id", "op\xFF", "obj with spaces and é")
	f.Fuzz(func(t *testing.T, session, operation, object string) {
		if len(session) > maxStringLen || len(operation) > maxStringLen || len(object) > maxStringLen {
			t.Skip()
		}
		b := AppendCheck(nil, session, operation, object)
		s2, op2, obj2, err := ConsumeCheck(b)
		if err != nil {
			t.Fatalf("ConsumeCheck(%x): %v", b, err)
		}
		if s2 != session || op2 != operation || obj2 != object {
			t.Fatalf("round trip (%q %q %q) -> (%q %q %q)", session, operation, object, s2, op2, obj2)
		}
		// The same tuple framed as a CACHE-flagged check, preceded by an
		// unsolicited EPOCH_PUSH — the stream shape a subscribed client's
		// reader sees — must decode back frame for frame.
		epoch := uint64(len(session))<<32 | uint64(len(operation))<<16 | uint64(len(object))
		stream := AppendFrame(nil, OpEpochPush, 0, AppendEpoch(nil, epoch))
		stream = AppendFrame(stream, OpCheck|CacheFlag, 1, b)
		dec := NewDecoder(bytes.NewReader(stream), 0)
		push, err := dec.Next()
		if err != nil || push.Op != OpEpochPush {
			t.Fatalf("push frame: (%#x, %v)", push.Op, err)
		}
		if e2, err := ConsumeEpoch(push.Payload); err != nil || e2 != epoch {
			t.Fatalf("push epoch = (%d, %v), want %d", e2, err, epoch)
		}
		chk, err := dec.Next()
		if err != nil || chk.Op != OpCheck|CacheFlag || chk.ID != 1 {
			t.Fatalf("check frame: (%#x id %d, %v)", chk.Op, chk.ID, err)
		}
		if s3, o3, b3, err := ConsumeCheck(chk.Payload); err != nil ||
			s3 != session || o3 != operation || b3 != object {
			t.Fatalf("framed round trip -> (%q %q %q, %v)", s3, o3, b3, err)
		}
		// A SYNC exchange derived from the same input: the request names a
		// replica, the response carries the object bytes as snapshot data.
		// Both must survive framing and re-decode exactly.
		st := SyncState{Epoch: epoch, Data: []byte(object)}
		st.Hash[0], st.Hash[SyncHashSize-1] = byte(epoch), byte(epoch>>8)
		stream = AppendFrame(nil, OpSync, 2, AppendSyncRequest(nil, session, epoch))
		stream = AppendFrame(stream, OpSync|RespFlag, 2, AppendSyncState(nil, st))
		dec = NewDecoder(bytes.NewReader(stream), 0)
		req, err := dec.Next()
		if err != nil || req.Op != OpSync {
			t.Fatalf("sync request frame: (%#x, %v)", req.Op, err)
		}
		if r2, a2, err := ConsumeSyncRequest(req.Payload); err != nil || r2 != session || a2 != epoch {
			t.Fatalf("sync request -> (%q %d, %v), want (%q %d)", r2, a2, err, session, epoch)
		}
		resp, err := dec.Next()
		if err != nil || resp.Op != OpSync|RespFlag {
			t.Fatalf("sync response frame: (%#x, %v)", resp.Op, err)
		}
		if st2, err := ConsumeSyncState(resp.Payload); err != nil ||
			st2.Epoch != st.Epoch || st2.Hash != st.Hash || !bytes.Equal(st2.Data, st.Data) {
			t.Fatalf("sync state round trip: epoch %d -> (%+v, %v)", epoch, st2.Epoch, err)
		}
	})
}
