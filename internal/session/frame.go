package session

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/secmediation/secmediation/internal/transport"
)

// The mux frame header lives in the transport.Message type tag, so a
// multiplexed link reuses the transport's frame unchanged and the
// per-link wire-byte accounting automatically includes the mux
// overhead. The format is
//
//	mux.<op>.<sid>[.<rest>]
//
// where <op> is a one-byte opcode, <sid> the decimal session ID, and
// <rest> the inner message type (data frames) or the reject reason
// (reject frames). Bodies travel verbatim: a data frame's body IS the
// session message's body, with no re-encoding.
const framePrefix = "mux."

// Frame opcodes.
const (
	opOpen   byte = 'o' // open a new session (sid chosen by the sender)
	opData   byte = 'd' // payload frame for an open session
	opClose  byte = 'c' // orderly close of a session
	opReject byte = 'r' // refuse a session the peer opened
)

// Reject-frame reasons. An overload reject may append a retry-after
// hint in whole milliseconds ("overloaded:250"); a draining reject
// means the server is shutting down and the session should be retried
// elsewhere (or later), not treated as a failure.
const (
	rejectOverloaded = "overloaded"
	rejectDraining   = "draining"
)

// rejectReason renders the reject-frame reason field, appending the
// retry-after hint (rounded up to whole milliseconds) when positive.
func rejectReason(base string, hint time.Duration) string {
	if hint <= 0 {
		return base
	}
	ms := int64((hint + time.Millisecond - 1) / time.Millisecond)
	return base + ":" + strconv.FormatInt(ms, 10)
}

// parseReject maps a reject-frame reason back to the typed error the
// opener's operations surface. Unknown reasons (newer peers, mangled
// frames) degrade to the overload shape — still typed, still
// retryable.
func parseReject(sid uint64, reason string) error {
	base, hintStr, _ := strings.Cut(reason, ":")
	if base == rejectDraining {
		return fmt.Errorf("session %d refused by peer: %w", sid, ErrDraining)
	}
	err := fmt.Errorf("session %d refused by peer: %w", sid, ErrOverloaded)
	if ms, perr := strconv.ParseInt(hintStr, 10, 64); perr == nil && ms > 0 {
		return &retryHintError{err: err, hint: time.Duration(ms) * time.Millisecond}
	}
	return err
}

// retryHintError decorates a reject error with the server-supplied
// retry-after hint. It is matched structurally (errors.As on an
// interface with RetryAfter) by internal/resilience, which keeps this
// package free of a dependency on the orchestrator.
type retryHintError struct {
	err  error
	hint time.Duration
}

func (e *retryHintError) Error() string { return e.err.Error() }
func (e *retryHintError) Unwrap() error { return e.err }

// RetryAfter returns the peer's suggested backoff before retrying.
func (e *retryHintError) RetryAfter() time.Duration { return e.hint }

// IsMuxFrame reports whether a message type tag carries the mux frame
// header — the sniff a Server uses to serve plain single-session links
// and multiplexed links from the same listener.
func IsMuxFrame(typ string) bool {
	return strings.HasPrefix(typ, framePrefix)
}

// parseFrame splits a frame type tag into opcode, session ID and the
// trailing field. Malformed frames return ok=false and are discarded
// (and counted) by the demux loop rather than failing the link: a
// single damaged header must not take sibling sessions down.
func parseFrame(typ string) (op byte, sid uint64, rest string, ok bool) {
	tail, found := strings.CutPrefix(typ, framePrefix)
	if !found || len(tail) < 3 || tail[1] != '.' {
		return 0, 0, "", false
	}
	op = tail[0]
	switch op {
	case opOpen, opData, opClose, opReject:
	default:
		return 0, 0, "", false
	}
	sidStr, rest, _ := strings.Cut(tail[2:], ".")
	sid, err := strconv.ParseUint(sidStr, 10, 64)
	if err != nil {
		return 0, 0, "", false
	}
	return op, sid, rest, true
}

// dataFrame wraps a session message into a mux data frame. The body is
// shared, not copied: frames carry already-encoded payloads.
//
// seclint:wire wraps an already-encoded payload body for the shared link
func dataFrame(sid uint64, m transport.Message) transport.Message {
	return transport.Message{
		Type: framePrefix + string(opData) + "." + strconv.FormatUint(sid, 10) + "." + m.Type,
		Body: m.Body,
	}
}

// controlFrame builds a bodyless open/close/reject frame; reason is
// appended for rejects.
func controlFrame(op byte, sid uint64, reason string) transport.Message {
	typ := framePrefix + string(op) + "." + strconv.FormatUint(sid, 10)
	if reason != "" {
		typ += "." + reason
	}
	return transport.Message{Type: typ}
}

// unwrapData recovers the session message from a data frame.
func unwrapData(rest string, frame transport.Message) transport.Message {
	return transport.Message{Type: rest, Body: frame.Body}
}
