package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxMessage is the inbound frame size limit applied by Dial,
// Accept and WrapNetConn. Generous: the largest legitimate payloads (full
// encrypted relations in the PM and commutative protocols) stay well
// under it, while a hostile length prefix claiming gigabytes is rejected
// before any allocation.
const DefaultMaxMessage = 256 << 20 // 256 MiB

// frameHeaderLen is the fixed TCP frame header: the type-tag length as a
// big-endian u32, then the body length as a big-endian u64. The tag and
// the body follow verbatim, so one frame is exactly
// frameHeaderLen + Message.Size() bytes on the wire.
const frameHeaderLen = 12

// firstChunk bounds the buffer allocated for an inbound frame before its
// bytes arrive. The buffer then doubles as the peer actually delivers,
// so a header that declares a huge frame and then stalls or closes costs
// the receiver at most this much.
const firstChunk = 1 << 20

// writeFrame writes m to w as one frame: header, tag and body go out in
// a single vectored write, without copying the body.
func writeFrame(w io.Writer, m Message) (int64, error) {
	if uint64(len(m.Type)) > math.MaxUint32 {
		return 0, fmt.Errorf("transport: %d-byte type tag exceeds the frame format", len(m.Type))
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(m.Type)))
	binary.BigEndian.PutUint64(hdr[4:12], uint64(len(m.Body)))
	// Empty parts are left out: some net.Conns (net.Pipe) turn a
	// zero-length Write into a rendezvous with the reader.
	bufs := net.Buffers{hdr[:]}
	if m.Type != "" {
		bufs = append(bufs, []byte(m.Type))
	}
	if len(m.Body) > 0 {
		bufs = append(bufs, m.Body)
	}
	return bufs.WriteTo(w)
}

// readFrame reads one frame from r, rejecting a declared tag-plus-body
// size above limit from the header alone. n counts the bytes consumed:
// an error with n == 0 left the stream aligned at a frame boundary (a
// clean close surfaces as bare io.EOF), while an error with n > 0 lost
// the stream position.
func readFrame(r io.Reader, limit int64) (m Message, n int64, err error) {
	var hdr [frameHeaderLen]byte
	k, err := io.ReadFull(r, hdr[:])
	n = int64(k)
	if err != nil {
		if k > 0 {
			err = fmt.Errorf("transport: truncated frame header: %w", err)
		}
		return Message{}, n, err
	}
	tagLen := uint64(binary.BigEndian.Uint32(hdr[0:4]))
	bodyLen := binary.BigEndian.Uint64(hdr[4:12])
	if bodyLen > uint64(limit) || tagLen > uint64(limit)-bodyLen {
		return Message{}, n, fmt.Errorf("%w: frame declares %d+%d bytes, limit %d", ErrTooLarge, tagLen, bodyLen, limit)
	}
	buf, err := readGrowing(r, int(tagLen+bodyLen))
	n += int64(len(buf))
	if err != nil {
		return Message{}, n, fmt.Errorf("transport: truncated frame: %w", err)
	}
	m.Type = string(buf[:tagLen])
	if bodyLen > 0 {
		m.Body = buf[tagLen:]
	}
	return m, n, nil
}

// readGrowing reads exactly size bytes from r. The buffer starts at
// min(size, firstChunk) and doubles only as bytes arrive, so memory
// follows what the peer sent rather than what it declared. On error it
// returns the bytes read so far and io.ErrUnexpectedEOF for a short
// stream.
func readGrowing(r io.Reader, size int) ([]byte, error) {
	buf := make([]byte, 0, min(size, firstChunk))
	for len(buf) < size {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(size, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// tcpConn adapts a net.Conn to the Conn interface with length-prefixed
// frames. Stats counts every byte that crosses the wire, headers
// included, rather than the payload approximation the in-memory
// transport uses.
type tcpConn struct {
	nc        net.Conn
	limit     int64 // inbound frame size limit
	sendMu    sync.Mutex
	recvMu    sync.Mutex
	recvErr   error        // sticky: set once a partial frame lost the stream position
	timeout   atomic.Int64 // nanoseconds; 0 disables
	stats     Stats
	closeOnce sync.Once
	closeErr  error
}

// Dial connects to a listening party at addr ("host:port").
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return WrapNetConn(nc), nil
}

// WrapNetConn turns any net.Conn into a transport Conn (length-prefixed
// frames) with the DefaultMaxMessage inbound frame limit.
func WrapNetConn(nc net.Conn) Conn {
	return WrapNetConnLimit(nc, DefaultMaxMessage)
}

// WrapNetConnLimit is WrapNetConn with an explicit inbound frame size
// limit in bytes; maxMessage <= 0 selects DefaultMaxMessage.
func WrapNetConnLimit(nc net.Conn, maxMessage int64) Conn {
	if maxMessage <= 0 {
		maxMessage = DefaultMaxMessage
	}
	return &tcpConn{nc: nc, limit: maxMessage}
}

// Listener accepts party connections.
type Listener struct {
	l net.Listener
	// MaxMessage bounds inbound frames on accepted connections;
	// 0 selects DefaultMaxMessage.
	MaxMessage int64
}

// Listen starts a TCP listener at addr; use addr ":0" for an ephemeral
// port (see Addr).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for one inbound connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return WrapNetConnLimit(nc, l.MaxMessage), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// armDeadline applies the configured timeout (or clears a previous one)
// through set, which is one of SetReadDeadline/SetWriteDeadline. Deadline
// errors on a closed socket are ignored; the pending I/O reports the
// close itself.
func (c *tcpConn) armDeadline(set func(time.Time) error) {
	if d := time.Duration(c.timeout.Load()); d > 0 {
		_ = set(time.Now().Add(d))
	} else {
		_ = set(time.Time{})
	}
}

// Send implements Conn.
func (c *tcpConn) Send(m Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.armDeadline(c.nc.SetWriteDeadline)
	n, err := writeFrame(c.nc, m)
	c.stats.bytesSent.Add(n)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return fmt.Errorf("transport: tcp send: %w", ErrTimeout)
		}
		return fmt.Errorf("transport: tcp send: %w", err)
	}
	c.stats.msgsSent.Add(1)
	return nil
}

// Recv implements Conn.
//
// Error mapping mirrors the in-memory transport: an orderly peer shutdown
// between messages surfaces as bare io.EOF; a timeout surfaces as an
// error matching ErrTimeout; everything else is wrapped with recv
// context. A failure after the first byte of a frame is sticky: every
// later Recv repeats it, because the stream position is lost.
func (c *tcpConn) Recv() (Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	err := c.recvErr
	if err == nil {
		c.armDeadline(c.nc.SetReadDeadline)
		var m Message
		var n int64
		m, n, err = readFrame(c.nc, c.limit)
		c.stats.bytesRecv.Add(n)
		if err == nil {
			c.stats.msgsRecv.Add(1)
			return m, nil
		}
		if n > 0 {
			c.recvErr = err
		}
	}
	switch {
	case err == io.EOF:
		// Clean close at a message boundary — parity with chanConn.
		return Message{}, io.EOF
	case errors.Is(err, os.ErrDeadlineExceeded):
		return Message{}, fmt.Errorf("transport: tcp recv: %w", ErrTimeout)
	default:
		return Message{}, fmt.Errorf("transport: tcp recv: %w", err)
	}
}

// Expect implements Conn.
func (c *tcpConn) Expect(typ string) (Message, error) { return expect(c, typ) }

// Close implements Conn.
func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}

// SetTimeout implements Conn. It arms per-operation net.Conn deadlines;
// an in-flight Recv is not interrupted, the bound applies from the next
// Send/Recv on.
func (c *tcpConn) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeout.Store(int64(d))
}

// Stats implements Conn.
func (c *tcpConn) Stats() *Stats { return &c.stats }
