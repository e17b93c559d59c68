package transport

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
)

// frameOf renders m exactly as the TCP transport puts it on the wire.
func frameOf(t testing.TB, m Message) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := writeFrame(&b, m); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzTCPFrame feeds arbitrary byte streams to the frame reader through
// a real net.Conn. It must never panic; it may fail only with a bare
// io.EOF at a frame boundary or a wrapped recv error (ErrTooLarge among
// them); and every message it does decode must re-frame to exactly the
// bytes it was read from.
func FuzzTCPFrame(f *testing.F) {
	sealed, err := NewMessage("das.partial-result", struct{ A, B int }{1, 2})
	if err != nil {
		f.Fatal(err)
	}
	msgs := []Message{
		{Type: "ping"},
		{Type: "mux.d.3.das.query", Body: []byte{1, 2, 3}},
		sealed,
	}
	var stream []byte
	for _, m := range msgs {
		fr := frameOf(f, m)
		f.Add(fr)
		f.Add(fr[:len(fr)-1])
		stream = append(stream, fr...)
	}
	f.Add(stream)
	f.Add(frameHeader(0, 1<<40))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p1, p2 := net.Pipe()
		c := WrapNetConnLimit(p2, 1<<16)
		written := make(chan struct{})
		go func() {
			defer close(written)
			p1.Write(data) // fails once the reader gives up and closes
			p1.Close()
		}()
		defer func() {
			c.Close()
			<-written
		}()
		off := 0
		for {
			m, err := c.Recv()
			if err != nil {
				if err == io.EOF {
					if off != len(data) {
						t.Fatalf("io.EOF at offset %d of %d: not a frame boundary", off, len(data))
					}
				} else if !strings.HasPrefix(err.Error(), "transport: tcp recv:") {
					t.Fatalf("unwrapped recv error: %v", err)
				}
				return
			}
			fr := frameOf(t, m)
			if !bytes.Equal(fr, data[off:min(off+len(fr), len(data))]) {
				t.Fatalf("message %q at offset %d does not re-frame to its input bytes", m.Type, off)
			}
			off += len(fr)
		}
	})
}
