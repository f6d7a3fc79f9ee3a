package transporttest

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"mralloc/internal/wire"
)

// VecShortConn is a net.Conn stub whose vectored write path
// (wire.VectorWriter) consumes at most k bytes per call and — like a
// flaky conn wrapper, violating the usual contract — reports the
// short count with a nil error. Plain Writes are capped the same way.
// The coalescing writer must tolerate both explicitly: a silently
// dropped suffix desyncs the framed stream for good, and with
// vectored writes the partial consumption can land mid-buffer, across
// buffers, or on the in-place envelope header itself.
type VecShortConn struct {
	k  int
	mu sync.Mutex
	b  bytes.Buffer

	vecCalls  int // WriteVec invocations
	vecBufMax int // most buffers seen in one call
}

// NewVecShortConn returns a stub accepting at most k bytes per write.
func NewVecShortConn(k int) *VecShortConn { return &VecShortConn{k: k} }

// WriteVec implements wire.VectorWriter with partial consumption.
func (c *VecShortConn) WriteVec(bufs [][]byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vecCalls++
	if len(bufs) > c.vecBufMax {
		c.vecBufMax = len(bufs)
	}
	n := 0
	for _, b := range bufs {
		take := len(b)
		if take > c.k-n {
			take = c.k - n
		}
		c.b.Write(b[:take])
		n += take
		if n == c.k {
			break
		}
	}
	return n, nil
}

func (c *VecShortConn) Write(p []byte) (int, error) {
	if len(p) > c.k {
		p = p[:c.k]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.b.Write(p)
}

// Bytes snapshots the stream written so far.
func (c *VecShortConn) Bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.b.Bytes()...)
}

// Stats reports how the vectored path was exercised.
func (c *VecShortConn) Stats() (calls, bufMax int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vecCalls, c.vecBufMax
}

func (c *VecShortConn) Read(p []byte) (int, error)       { select {} }
func (c *VecShortConn) Close() error                     { return nil }
func (c *VecShortConn) LocalAddr() net.Addr              { return nil }
func (c *VecShortConn) RemoteAddr() net.Addr             { return nil }
func (c *VecShortConn) SetDeadline(time.Time) error      { return nil }
func (c *VecShortConn) SetReadDeadline(time.Time) error  { return nil }
func (c *VecShortConn) SetWriteDeadline(time.Time) error { return nil }

// TestVectoredEgressShortWrites drives the exact owned-frame egress
// path a TCP outConn uses — peer header + codec payload encoded into
// pooled frames, finished with FinishFrame, queued with AppendOwned —
// through a vectored coalescing writer over a short-writing net.Conn,
// then decodes the resulting stream and requires every frame intact
// and in order. It is part of the conformance surface: any transport
// reusing the coalescer's vectored egress inherits exactly this
// tolerance.
func TestVectoredEgressShortWrites(t *testing.T) {
	const n, msgs = 4, 150
	conn := NewVecShortConn(7)
	co := wire.NewCoalescer(conn, func(err error) { t.Errorf("write error: %v", err) })

	for s := int64(1); s <= msgs; s++ {
		buf := wire.GetFrame(256)[:wire.FrameDataOff]
		buf = binary.AppendVarint(buf, 1) // from
		buf = binary.AppendVarint(buf, 2) // to
		frame, err := wire.AppendStream(buf, Msg{K: KindA, From: 1, Seq: s}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !co.AppendOwned(frame, wire.FinishFrame(frame)) {
			t.Fatal("AppendOwned refused")
		}
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	fr := wire.NewFrameReader(bytes.NewReader(conn.Bytes()), 1<<20)
	for s := int64(1); s <= msgs; s++ {
		frame, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", s, err)
		}
		d := wire.NewDecFor(frame, n, 0)
		if from, to := d.Site(), d.Site(); from != 1 || to != 2 {
			t.Fatalf("frame %d routed %d→%d, want 1→2", s, from, to)
		}
		m, err := wire.DecodeFor(d.Rest(), n, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", s, err)
		}
		if got := m.(Msg).Seq; got != s {
			t.Fatalf("frame %d carries seq %d (loss or reordering across short vectored writes)", s, got)
		}
	}
	st := co.Stats()
	if st.Frames != msgs {
		t.Fatalf("stats.Frames = %d, want %d", st.Frames, msgs)
	}
	if st.Batches == 0 {
		t.Fatal("no batch envelope flushed: the vectored path was not exercised")
	}
	calls, bufMax := conn.Stats()
	if calls == 0 || bufMax < 2 {
		t.Fatalf("vectored writes not driven (calls=%d, max bufs=%d)", calls, bufMax)
	}
	// Every write was capped at 7 bytes, so writes must far exceed
	// flushes — the consume-and-retry loop, not luck, delivered the
	// stream.
	if st.Writes <= st.Flushes {
		t.Fatalf("writes=%d flushes=%d: short writes were not exercised", st.Writes, st.Flushes)
	}
}
