package wire_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"mralloc/internal/leakcheck"
	"mralloc/internal/wire"
)

// blockingWriter blocks every Write until release is closed — a peer
// that stopped reading and ignores deadlines, the documented way to
// wedge a Coalescer.Close forever.
type blockingWriter struct {
	entered chan struct{} // closed when the first Write is reached
	release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	select {
	case <-w.entered:
	default:
		close(w.entered)
	}
	<-w.release
	return len(p), nil
}

// TestCloseWithinBoundedByDeadline: with the flusher stuck in a write
// that never returns, CloseWithin must give up after its deadline with
// ErrCloseTimeout instead of hanging like Close would — and the
// abandoned flusher must still exit cleanly once the write unblocks.
func TestCloseWithinBoundedByDeadline(t *testing.T) {
	w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	co := wire.NewCoalescer(w, nil)
	if !co.Append([]byte("stuck")) {
		t.Fatal("append refused")
	}
	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never reached the write")
	}
	start := time.Now()
	err := co.CloseWithin(50 * time.Millisecond)
	if !errors.Is(err, wire.ErrCloseTimeout) {
		t.Fatalf("CloseWithin = %v, want ErrCloseTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("CloseWithin took %v against a stuck flusher", d)
	}
	// The close is committed: no more frames may enter.
	if co.Append([]byte("late")) {
		t.Fatal("append accepted after CloseWithin")
	}
	// Unblock the write: the abandoned flusher exits and a second
	// bounded close now joins it promptly.
	close(w.release)
	if err := co.CloseWithin(5 * time.Second); err != nil {
		t.Fatalf("CloseWithin after unblock: %v", err)
	}
}

// TestCloseWithinDrainsQueued: with a healthy writer, CloseWithin is
// exactly Close — everything queued flushes before it returns.
func TestCloseWithinDrainsQueued(t *testing.T) {
	w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	close(w.release) // healthy: writes return immediately
	co := wire.NewCoalescer(w, nil)
	for i := 0; i < 10; i++ {
		if !co.Append([]byte("frame")) {
			t.Fatal("append refused")
		}
	}
	if err := co.CloseWithin(5 * time.Second); err != nil {
		t.Fatalf("CloseWithin: %v", err)
	}
	if st := co.Stats(); st.Frames != 10 {
		t.Fatalf("flushed %d frames before close, want 10", st.Frames)
	}
}

// TestCloseIdleLeaksNothing: a coalescer that never saw a frame parks
// its flusher on the idle wait; Close must wake and join it.
func TestCloseIdleLeaksNothing(t *testing.T) {
	check := leakcheck.Check(t)
	var sink bytes.Buffer
	co := wire.NewCoalescer(&sink, nil)
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 0 {
		t.Fatalf("idle Close wrote %d bytes", sink.Len())
	}
	check()
}

// TestCloseFlushesQueuedThenExits: frames queued behind a write in
// progress when Close commits must still be written — as one batch
// flush — before the flusher exits.
func TestCloseFlushesQueuedThenExits(t *testing.T) {
	check := leakcheck.Check(t)
	var mu sync.Mutex
	var sink bytes.Buffer
	entered, release := make(chan struct{}), make(chan struct{})
	first := true
	w := writerFunc(func(p []byte) (int, error) {
		if first {
			first = false
			close(entered)
			<-release
		}
		mu.Lock()
		defer mu.Unlock()
		return sink.Write(p)
	})
	co := wire.NewCoalescer(w, nil)
	if !co.Append([]byte{0, 1, 2}) {
		t.Fatal("Append refused")
	}
	<-entered // the flusher is stuck writing frame 0
	for i := 1; i <= 5; i++ {
		if !co.Append([]byte{byte(i), 1, 2}) {
			t.Fatal("Append refused")
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- co.Close() }()
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the write unblocked")
	}
	mu.Lock()
	stream := append([]byte(nil), sink.Bytes()...)
	mu.Unlock()
	frames, err := collect(t, stream, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 6 {
		t.Fatalf("%d frames written, want 6 (queued frames dropped on Close)", len(frames))
	}
	for i, f := range frames {
		if f[0] != byte(i) {
			t.Fatalf("frame %d carries %d: reordered on Close", i, f[0])
		}
	}
	if st := co.Stats(); st.Flushes != 2 || st.Batches != 1 {
		t.Errorf("want the lone frame then one batch of the queued five: %+v", st)
	}
	check()
}

// TestCloseAfterErrorLeaksNothing: once a write fails the flusher
// exits; frames appended later are refused and Close reports the
// error without waiting on anything.
func TestCloseAfterErrorLeaksNothing(t *testing.T) {
	check := leakcheck.Check(t)
	errc := make(chan error, 1)
	co := wire.NewCoalescer(&errWriter{n: 1}, func(err error) { errc <- err })
	co.Append(bytes.Repeat([]byte{7}, 64))
	if err := <-errc; err == nil {
		t.Fatal("onErr not called")
	}
	if co.Append([]byte{1}) {
		t.Fatal("Append accepted after failure")
	}
	if err := co.Close(); err == nil {
		t.Fatal("Close reported no error")
	}
	check()
}
