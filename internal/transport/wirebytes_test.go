package transport

import (
	"io"
	"sync"
	"testing"
)

// tcpPair connects a TCP client/server conn pair over the loopback.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	errs := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errs <- err
			return
		}
		accepted <- c
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case server := <-accepted:
		t.Cleanup(func() { client.Close(); server.Close() })
		return client, server
	case err := <-errs:
		t.Fatal(err)
		return nil, nil
	}
}

// The TCP transport must account the bytes that actually cross the wire:
// one frame is exactly the 12-byte header plus the in-memory transport's
// len(Type)+len(Body), and both ends of the link count the same stream.
func TestTCPWireBytesExceedPayloadBytes(t *testing.T) {
	client, server := tcpPair(t)

	memA, memB := Pair()
	defer memA.Close()
	defer memB.Close()

	const rounds = 5
	for i := 0; i < rounds; i++ {
		m := Message{Type: "bulk", Body: make([]byte, 1000+i)}
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := memA.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := memB.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	want := frameHeaderLen*rounds + memA.Stats().BytesSent()
	if got := client.Stats().BytesSent(); got != want {
		t.Errorf("sender counted %d wire bytes, want 12·%d + %d = %d", got, rounds, memA.Stats().BytesSent(), want)
	}
	if got := server.Stats().BytesRecv(); got != want {
		t.Errorf("receiver counted %d wire bytes, want %d", got, want)
	}
	// Replies flow the other way with the same properties.
	reply := Message{Type: "reply", Body: make([]byte, 64)}
	if err := server.Send(reply); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recv(); err != nil {
		t.Fatal(err)
	}
	want = int64(frameHeaderLen + reply.Size())
	if client.Stats().BytesRecv() != want || server.Stats().BytesSent() != want {
		t.Errorf("reply direction: client recv %d, server sent %d, want %d",
			client.Stats().BytesRecv(), server.Stats().BytesSent(), want)
	}
}

// Stats accessors must be safe to read while Send/Recv are live on the
// same endpoint — the telemetry exporters poll them mid-protocol. Run
// with -race.
func TestStatsConcurrentReads(t *testing.T) {
	for name, mk := range map[string]func(t *testing.T) (Conn, Conn){
		"chan": func(t *testing.T) (Conn, Conn) {
			a, b := Pair()
			t.Cleanup(func() { a.Close(); b.Close() })
			return a, b
		},
		"tcp": tcpPair,
	} {
		t.Run(name, func(t *testing.T) {
			a, b := mk(t)
			const n = 200
			var wg sync.WaitGroup
			wg.Add(3)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := a.Send(Message{Type: "m", Body: make([]byte, 32)}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := b.Recv(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				var last int64
				for i := 0; i < 1000; i++ {
					v := a.Stats().BytesSent() + b.Stats().BytesRecv() +
						a.Stats().MsgsSent() + b.Stats().MsgsRecv()
					if v < last {
						t.Errorf("stats went backwards: %d -> %d", last, v)
						return
					}
					last = v
				}
			}()
			wg.Wait()
		})
	}
}

// Every message queued before the peer closed must be drainable, in
// order, before Recv reports EOF — not just the first one.
func TestPairDrainsAllQueuedAfterPeerClose(t *testing.T) {
	a, b := Pair()
	defer b.Close()
	const queued = 7
	for i := 0; i < queued; i++ {
		if err := a.Send(Message{Type: "pre", Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	for i := 0; i < queued; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		if m.Type != "pre" || int(m.Body[0]) != i {
			t.Fatalf("drain %d: got %q/%v", i, m.Type, m.Body)
		}
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Errorf("after full drain: %v, want EOF", err)
	}
	if got := b.Stats().MsgsRecv(); got != queued {
		t.Errorf("drained msgs counted = %d, want %d", got, queued)
	}
}
