// Package transport provides the message-passing fabric between the
// mediation parties (client, mediator, datasources): typed message
// envelopes, an in-memory duplex channel pair for single-process runs and
// tests, a TCP transport carrying each message as one length-prefixed
// frame for multi-process deployment, and per-link traffic accounting
// used by the Section 6 cost experiments.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTimeout reports that a Send or Recv exceeded the timeout configured
// with Conn.SetTimeout. Match it with errors.Is; protocols treat it as a
// dead peer and abort.
var ErrTimeout = errors.New("transport: i/o timeout")

// ErrTooLarge reports an inbound message whose declared size exceeds the
// receiver's limit (see WrapNetConnLimit). The connection is poisoned:
// subsequent Recv calls keep failing, because the stream position inside
// the oversized frame is lost.
var ErrTooLarge = errors.New("transport: message exceeds size limit")

// ErrIntegrity reports a message body whose digest no longer matches its
// payload: the message was corrupted or truncated in flight. Without the
// check, a flipped byte that keeps the payload decodable silently changes
// the protocol's inputs — a DAS server query with a flipped partition
// index returns a wrong (smaller) join instead of an error. The error is
// a link fault, so retry orchestration treats it as transient.
var ErrIntegrity = errors.New("transport: integrity: message digest mismatch")

// Message is the unit of exchange between parties: a protocol-defined type
// tag and a gob-encoded body.
type Message struct {
	// Type tags the message for dispatching (e.g. "das.partial-result").
	Type string
	// Body is the gob-encoded payload.
	Body []byte
}

// size returns the accounted wire size of the message.
func (m Message) size() int { return len(m.Type) + len(m.Body) }

// Size returns the accounted wire size of the message (type tag plus
// body bytes) — the unit the in-memory transport counts in. Exported for
// Conn wrappers outside this package (the session mux) that maintain
// their own per-endpoint Stats.
func (m Message) Size() int { return m.size() }

// Encode gob-encodes a payload struct into a message body.
// seclint:wire gob-encodes the payload for a link
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode gob-decodes a message body into a payload struct.
func Decode(b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}

// sumLen is the length of the integrity digest prefixed to every
// message body by NewMessage and verified by Payload.
const sumLen = 8

// digest is the FNV-1a sum prefixed to every message body. It detects
// accidental in-flight corruption and truncation (so protocols fail
// typed instead of computing on mangled inputs); it is NOT a MAC —
// tamper resistance comes from the hybrid-encryption layer above, per
// the paper's trust model.
func digest(payload []byte) uint64 {
	h := fnv.New64a()
	if _, err := h.Write(payload); err != nil {
		panic("transport: fnv write: " + err.Error())
	}
	return h.Sum64()
}

// Payload verifies a received message's integrity digest and returns
// the encoded payload, or an ErrIntegrity-wrapped error when the body
// was corrupted or truncated in flight.
func Payload(m Message) ([]byte, error) {
	if len(m.Body) < sumLen {
		return nil, fmt.Errorf("message %q: %d-byte body: %w", m.Type, len(m.Body), ErrIntegrity)
	}
	if binary.BigEndian.Uint64(m.Body) != digest(m.Body[sumLen:]) {
		return nil, fmt.Errorf("message %q: %w", m.Type, ErrIntegrity)
	}
	return m.Body[sumLen:], nil
}

// NewMessage builds a message with an encoded, integrity-sealed body.
// seclint:wire gob-encodes the payload for a link
func NewMessage(typ string, v any) (Message, error) {
	// Encode behind a reserved digest slot, so the payload is never
	// copied to make room for it.
	buf := bytes.NewBuffer(make([]byte, sumLen))
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return Message{}, fmt.Errorf("transport: encode: %w", err)
	}
	body := buf.Bytes()
	binary.BigEndian.PutUint64(body, digest(body[sumLen:]))
	return Message{Type: typ, Body: body}, nil
}

// Conn is one endpoint of a duplex party-to-party link.
type Conn interface {
	// Send transmits a message to the peer.
	Send(Message) error
	// Recv blocks for the next message from the peer.
	Recv() (Message, error)
	// Expect receives the next message and verifies its type tag; a
	// mismatch is a protocol error.
	Expect(typ string) (Message, error)
	// Close releases the link. Pending Recv calls fail.
	Close() error
	// SetTimeout bounds every subsequent Send and Recv to d. Zero or
	// negative disables the bound. A timed-out operation fails with an
	// error matching ErrTimeout (via errors.Is).
	SetTimeout(d time.Duration)
	// Stats returns this endpoint's traffic counters.
	Stats() *Stats
}

// Stats counts traffic through one endpoint. All fields are managed
// atomically; read them only through the accessor methods while the link
// is live.
type Stats struct {
	msgsSent, msgsRecv   atomic.Int64
	bytesSent, bytesRecv atomic.Int64
}

// MsgsSent returns the number of messages sent.
func (s *Stats) MsgsSent() int64 { return s.msgsSent.Load() }

// MsgsRecv returns the number of messages received.
func (s *Stats) MsgsRecv() int64 { return s.msgsRecv.Load() }

// BytesSent returns the accounted bytes sent.
func (s *Stats) BytesSent() int64 { return s.bytesSent.Load() }

// BytesRecv returns the accounted bytes received.
func (s *Stats) BytesRecv() int64 { return s.bytesRecv.Load() }

// CountSend records one sent message of the given accounted size.
// Exported for Conn wrappers outside this package (the session mux) that
// attribute a shared link's traffic to per-session counters.
func (s *Stats) CountSend(bytes int64) {
	s.msgsSent.Add(1)
	s.bytesSent.Add(bytes)
}

// CountRecv records one received message of the given accounted size.
func (s *Stats) CountRecv(bytes int64) {
	s.msgsRecv.Add(1)
	s.bytesRecv.Add(bytes)
}

// chanConn is an in-memory Conn over buffered channels.
type chanConn struct {
	out, in   chan Message
	closeOnce sync.Once
	closed    chan struct{}
	peerDone  chan struct{}
	timeout   atomic.Int64 // nanoseconds; 0 disables
	stats     Stats
}

// Pair creates a connected in-memory duplex link and returns its two
// endpoints. The buffer is generous so that strictly alternating protocols
// never deadlock even when one side sends several messages per round.
func Pair() (Conn, Conn) {
	ab := make(chan Message, 1024)
	ba := make(chan Message, 1024)
	a := &chanConn{out: ab, in: ba, closed: make(chan struct{})}
	b := &chanConn{out: ba, in: ab, closed: make(chan struct{})}
	a.peerDone = b.closed
	b.peerDone = a.closed
	return a, b
}

// Send implements Conn.
func (c *chanConn) Send(m Message) error {
	// Closure checks must win over a ready buffer slot, so probe them
	// before the (possibly non-blocking) send.
	select {
	case <-c.closed:
		return fmt.Errorf("transport: send on closed connection")
	default:
	}
	select {
	case <-c.peerDone:
		return fmt.Errorf("transport: peer closed")
	default:
	}
	deadline, stop := c.deadline()
	defer stop()
	select {
	case <-c.closed:
		return fmt.Errorf("transport: send on closed connection")
	case <-c.peerDone:
		return fmt.Errorf("transport: peer closed")
	case c.out <- m:
		c.stats.msgsSent.Add(1)
		c.stats.bytesSent.Add(int64(m.size()))
		return nil
	case <-deadline:
		return fmt.Errorf("transport: send: %w", ErrTimeout)
	}
}

// deadline returns a channel that fires when the configured timeout
// elapses (nil — never — when timeouts are disabled) and a stop function
// releasing the backing timer.
func (c *chanConn) deadline() (<-chan time.Time, func()) {
	d := time.Duration(c.timeout.Load())
	if d <= 0 {
		return nil, func() {}
	}
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// Recv implements Conn.
func (c *chanConn) Recv() (Message, error) {
	select {
	case <-c.closed:
		return Message{}, fmt.Errorf("transport: recv on closed connection")
	default:
	}
	deadline, stop := c.deadline()
	defer stop()
	select {
	case <-c.closed:
		return Message{}, fmt.Errorf("transport: recv on closed connection")
	case m := <-c.in:
		c.stats.msgsRecv.Add(1)
		c.stats.bytesRecv.Add(int64(m.size()))
		return m, nil
	case <-deadline:
		return Message{}, fmt.Errorf("transport: recv: %w", ErrTimeout)
	case <-c.peerDone:
		// Drain messages the peer sent before closing.
		select {
		case m := <-c.in:
			c.stats.msgsRecv.Add(1)
			c.stats.bytesRecv.Add(int64(m.size()))
			return m, nil
		default:
			return Message{}, io.EOF
		}
	}
}

// Expect implements Conn.
func (c *chanConn) Expect(typ string) (Message, error) {
	return expect(c, typ)
}

// Close implements Conn.
func (c *chanConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// SetTimeout implements Conn.
func (c *chanConn) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeout.Store(int64(d))
}

// Stats implements Conn.
func (c *chanConn) Stats() *Stats { return &c.stats }

func expect(c Conn, typ string) (Message, error) {
	m, err := c.Recv()
	if err != nil {
		return Message{}, err
	}
	if m.Type != typ {
		return Message{}, fmt.Errorf("transport: expected message %q, got %q", typ, m.Type)
	}
	return m, nil
}
