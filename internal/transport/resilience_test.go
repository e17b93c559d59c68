package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Deadlines: in-memory pair.

func TestChanConnRecvTimeout(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	b.SetTimeout(30 * time.Millisecond)
	start := time.Now()
	if _, err := b.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv on silent pair = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout fired far too late")
	}
	// A timeout is not sticky: the link still works once traffic arrives.
	if err := a.Send(Message{Type: "late"}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil || m.Type != "late" {
		t.Errorf("recv after timeout = %v, %v; want the late message", m, err)
	}
}

func TestChanConnSendTimeout(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	a.SetTimeout(30 * time.Millisecond)
	// Fill the buffered channel so the next send blocks.
	var err error
	for i := 0; i < 2000; i++ {
		if err = a.Send(Message{Type: "fill"}); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("send into full pair = %v, want ErrTimeout", err)
	}
}

func TestSetTimeoutDisable(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	b.SetTimeout(20 * time.Millisecond)
	b.SetTimeout(0) // disable again
	go func() {
		time.Sleep(60 * time.Millisecond) // longer than the cancelled timeout
		a.Send(Message{Type: "slow"})
	}()
	if m, err := b.Recv(); err != nil || m.Type != "slow" {
		t.Errorf("recv with disabled timeout = %v, %v", m, err)
	}
}

// ---------------------------------------------------------------------------
// Deadlines: TCP.

func TestTCPRecvTimeout(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	speak := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		<-speak // stay silent until told
		done <- c.Send(Message{Type: "late"})
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)
	if _, err := c.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv from silent tcp peer = %v, want ErrTimeout", err)
	}
	// A first-byte timeout must not poison the stream: the decoder has
	// consumed nothing, so the next Recv sees a whole frame.
	close(speak)
	c.SetTimeout(2 * time.Second)
	m, err := c.Recv()
	if err != nil || m.Type != "late" {
		t.Errorf("recv after timeout = %v, %v; want the late message", m, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCPCleanCloseEOF(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close() // clean shutdown, no message
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Recv(); err != io.EOF {
		t.Errorf("recv after clean peer close = %v, want io.EOF (same as the in-memory pair)", err)
	}
}

func TestTCPRecvErrorWrapped(t *testing.T) {
	p1, p2 := net.Pipe()
	c := WrapNetConn(p2)
	defer c.Close()
	go func() {
		// A plausible frame header followed by too few bytes: the read
		// fails mid-frame, which must surface as a wrapped transport error.
		p1.Write(frameHeader(4, 255))
		p1.Write([]byte{0xff, 0xff, 0xff, 0xff})
		p1.Close()
	}()
	_, err := c.Recv()
	if err == nil || err == io.EOF {
		t.Fatalf("truncated stream decoded: %v", err)
	}
	if !strings.Contains(err.Error(), "transport: tcp recv:") {
		t.Errorf("decode error not wrapped: %v", err)
	}
}

// frameHeader hand-builds a frame header declaring the given type-tag
// and body lengths.
func frameHeader(tagLen uint32, bodyLen uint64) []byte {
	hdr := binary.BigEndian.AppendUint32(nil, tagLen)
	return binary.BigEndian.AppendUint64(hdr, bodyLen)
}

// ---------------------------------------------------------------------------
// Message size limit.

// TestTCPOversizedHeader feeds a hand-built frame header declaring a
// terabyte-scale body: Recv must reject it from the 12-byte header
// alone, before any allocation, and the connection stays poisoned.
func TestTCPOversizedHeader(t *testing.T) {
	p1, p2 := net.Pipe()
	c := WrapNetConnLimit(p2, 1<<20)
	defer c.Close()
	go p1.Write(frameHeader(0, 1<<40))
	_, err := c.Recv()
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("recv of declared 1 TiB frame = %v, want ErrTooLarge", err)
	}
	if !strings.Contains(err.Error(), "transport: tcp recv:") {
		t.Errorf("size error not wrapped: %v", err)
	}
	// Poisoned: the stream position inside the giant frame is lost.
	if _, err := c.Recv(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("second recv = %v, want sticky ErrTooLarge", err)
	}
}

// TestTCPDeclaredSizeDoesNotDriveAllocation sends a header declaring a
// frame just under the default limit, a few bytes, then closes. The
// receiver must fail with a wrapped truncation error having allocated
// only what arrived, not the 256 MiB the peer claimed: every
// unauthenticated link gets to send one such header before admission.
func TestTCPDeclaredSizeDoesNotDriveAllocation(t *testing.T) {
	p1, p2 := net.Pipe()
	c := WrapNetConn(p2)
	defer c.Close()
	go func() {
		p1.Write(frameHeader(0, DefaultMaxMessage-1))
		p1.Write([]byte("a few bytes"))
		p1.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Recv()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "transport: tcp recv:") {
		t.Fatalf("recv of truncated giant frame = %v, want wrapped unexpected EOF", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 4<<20 {
		t.Errorf("receiver allocated %d bytes for an 11-byte body, want < 4 MiB", delta)
	}
}

// TestTCPOversizedMessage sends a real message past a small receive limit.
func TestTCPOversizedMessage(t *testing.T) {
	p1, p2 := net.Pipe()
	sender := WrapNetConn(p1)
	receiver := WrapNetConnLimit(p2, 4096)
	defer sender.Close()
	defer receiver.Close()
	go func() {
		// net.Pipe is synchronous: this send blocks once the receiver
		// stops reading, and fails when the test closes the pipe. Both
		// outcomes are fine; the assertion lives on the receive side.
		sender.Send(Message{Type: "big", Body: make([]byte, 64<<10)})
	}()
	if _, err := receiver.Recv(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("recv of 64 KiB frame with 4 KiB limit = %v, want ErrTooLarge", err)
	}
}

// TestTCPLimitAllowsNormalTraffic pins that the default limit does not get
// in the way of ordinary messages.
func TestTCPLimitAllowsNormalTraffic(t *testing.T) {
	p1, p2 := net.Pipe()
	sender := WrapNetConn(p1)
	receiver := WrapNetConnLimit(p2, 1<<20)
	defer sender.Close()
	defer receiver.Close()
	go sender.Send(Message{Type: "ok", Body: make([]byte, 32<<10)})
	m, err := receiver.Recv()
	if err != nil || m.Type != "ok" || len(m.Body) != 32<<10 {
		t.Fatalf("recv under limit = %v, %v", m.Type, err)
	}
}

// ---------------------------------------------------------------------------
// Fault injection.

func TestFaultDropSend(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	reg := telemetry.NewRegistry()
	fa := WrapFault(a, &FaultPlan{Class: FaultDrop, SendOp: 0, RecvOp: -1, Telemetry: reg})
	if err := fa.Send(Message{Type: "lost"}); err != nil {
		t.Fatal(err)
	}
	if err := fa.Send(Message{Type: "kept"}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil || m.Type != "kept" {
		t.Errorf("first delivered message = %v, %v; want the second send", m, err)
	}
	if got := reg.Counter("transport_faults_injected", "class", "drop", "dir", "send").Value(); got != 1 {
		t.Errorf("injection counter = %d, want 1", got)
	}
}

func TestFaultDropRecv(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fb := WrapFault(b, &FaultPlan{Class: FaultDrop, SendOp: -1, RecvOp: 0})
	a.Send(Message{Type: "eaten"})
	a.Send(Message{Type: "kept"})
	m, err := fb.Recv()
	if err != nil || m.Type != "kept" {
		t.Errorf("recv past dropped message = %v, %v", m, err)
	}
}

func TestFaultDuplicate(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultDuplicate, SendOp: 0, RecvOp: -1})
	fa.Send(Message{Type: "twin", Body: []byte{1}})
	for i := 0; i < 2; i++ {
		m, err := b.Recv()
		if err != nil || m.Type != "twin" {
			t.Fatalf("copy %d = %v, %v", i, m, err)
		}
	}
}

func TestFaultDuplicateRecv(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fb := WrapFault(b, &FaultPlan{Class: FaultDuplicate, SendOp: -1, RecvOp: 0})
	a.Send(Message{Type: "twin"})
	for i := 0; i < 2; i++ {
		m, err := fb.Recv()
		if err != nil || m.Type != "twin" {
			t.Fatalf("copy %d = %v, %v", i, m, err)
		}
	}
}

func TestFaultCorruptDeterministic(t *testing.T) {
	flip := func() int {
		a, b := Pair()
		defer a.Close()
		defer b.Close()
		fa := WrapFault(a, &FaultPlan{Class: FaultCorrupt, SendOp: 0, RecvOp: -1, Seed: 99})
		orig := []byte{10, 20, 30, 40, 50}
		fa.Send(Message{Type: "c", Body: append([]byte(nil), orig...)})
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		pos := -1
		for i := range orig {
			if m.Body[i] != orig[i] {
				if pos >= 0 {
					t.Fatalf("more than one byte flipped: %v", m.Body)
				}
				pos = i
			}
		}
		if pos < 0 {
			t.Fatal("no byte flipped")
		}
		return pos
	}
	if p1, p2 := flip(), flip(); p1 != p2 {
		t.Errorf("corrupt position not deterministic: %d vs %d", p1, p2)
	}
}

func TestFaultCorruptCopiesBody(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultCorrupt, SendOp: 0, RecvOp: -1})
	body := []byte{1, 2, 3, 4}
	fa.Send(Message{Type: "c", Body: body})
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	// The sender's slice must be untouched — on the in-memory transport
	// the message body is shared, and a fault wrapper that scribbles on
	// the caller's buffer would corrupt protocol state, not the wire.
	for i, v := range []byte{1, 2, 3, 4} {
		if body[i] != v {
			t.Fatalf("sender's body mutated: %v", body)
		}
	}
}

func TestFaultTruncate(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultTruncate, SendOp: 0, RecvOp: -1})
	fa.Send(Message{Type: "t", Body: make([]byte, 10)})
	m, err := b.Recv()
	if err != nil || len(m.Body) != 5 {
		t.Errorf("truncated body = %d bytes, %v; want 5", len(m.Body), err)
	}
}

func TestFaultDelay(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultDelay, SendOp: 0, RecvOp: -1, Delay: 40 * time.Millisecond})
	start := time.Now()
	fa.Send(Message{Type: "slow"})
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("delayed send returned after %v, want >= 40ms", d)
	}
	if m, err := b.Recv(); err != nil || m.Type != "slow" {
		t.Errorf("delayed message = %v, %v", m, err)
	}
}

func TestFaultCloseSend(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultClose, SendOp: 1, RecvOp: -1})
	if err := fa.Send(Message{Type: "first"}); err != nil {
		t.Fatal(err)
	}
	if err := fa.Send(Message{Type: "second"}); err == nil {
		t.Error("send after injected close succeeded")
	}
	// The peer sees the close as EOF once the first message is drained.
	if m, err := b.Recv(); err != nil || m.Type != "first" {
		t.Fatalf("drain = %v, %v", m, err)
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Errorf("peer recv after injected close = %v, want io.EOF", err)
	}
}

func TestFaultCloseRecv(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fb := WrapFault(b, &FaultPlan{Class: FaultClose, SendOp: -1, RecvOp: 0})
	a.Send(Message{Type: "never-seen"})
	if _, err := fb.Recv(); err == nil {
		t.Error("recv with injected close succeeded")
	}
}

func TestFaultExpectGoesThroughFaults(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fb := WrapFault(b, &FaultPlan{Class: FaultDrop, SendOp: -1, RecvOp: 0})
	a.Send(Message{Type: "dropped"})
	a.Send(Message{Type: "wanted"})
	m, err := fb.Expect("wanted")
	if err != nil || m.Type != "wanted" {
		t.Errorf("expect through fault wrapper = %v, %v", m, err)
	}
}

func TestFaultNoneTransparent(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	fa := WrapFault(a, &FaultPlan{Class: FaultNone, SendOp: 0, RecvOp: 0})
	for i := 0; i < 3; i++ {
		if err := fa.Send(Message{Type: "m"}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFaultOverTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		fc := WrapFault(c, &FaultPlan{Class: FaultTruncate, SendOp: 0, RecvOp: -1})
		done <- fc.Send(Message{Type: "t", Body: make([]byte, 8)})
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.Recv()
	if err != nil || len(m.Body) != 4 {
		t.Errorf("truncate over tcp: %d bytes, %v; want 4", len(m.Body), err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFaultClassString(t *testing.T) {
	want := map[FaultClass]string{
		FaultNone: "none", FaultDrop: "drop", FaultDelay: "delay",
		FaultDuplicate: "duplicate", FaultCorrupt: "corrupt",
		FaultTruncate: "truncate", FaultClose: "close",
	}
	for class, name := range want {
		if class.String() != name {
			t.Errorf("%d.String() = %q, want %q", class, class.String(), name)
		}
	}
}
