package resilience

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// recordingPolicy returns a deterministic policy that captures sleeps.
func recordingPolicy(sleeps *[]time.Duration) Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    400 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0, // exact delays
		Seed:        1,
		Sleep:       func(d time.Duration) { *sleeps = append(*sleeps, d) },
	}
}

func TestDoRecovers(t *testing.T) {
	reg := telemetry.NewRegistry()
	var sleeps []time.Duration
	pol := recordingPolicy(&sleeps)
	pol.Telemetry = reg
	var ids []string
	var ns []int
	res, err := Do(pol, func(a Attempt) error {
		ids = append(ids, a.QueryID)
		ns = append(ns, a.N)
		if a.N < 3 {
			return fmt.Errorf("recv: %w", transport.ErrTimeout)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !res.Recovered || res.Attempts != 3 {
		t.Fatalf("result = %+v, want recovered in 3 attempts", res)
	}
	if len(ids) != 3 || ids[0] != ids[1] || ids[1] != ids[2] || ids[0] != res.QueryID {
		t.Fatalf("query IDs %v not stable across attempts (result %q)", ids, res.QueryID)
	}
	if ns[0] != 1 || ns[1] != 2 || ns[2] != 3 {
		t.Fatalf("attempt numbers = %v, want 1,2,3", ns)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	if len(sleeps) != 2 || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Fatalf("backoffs = %v, want %v", sleeps, want)
	}
	if got := reg.Counter("retries_attempted").Value(); got != 2 {
		t.Errorf("retries_attempted = %d, want 2", got)
	}
	if got := reg.Counter("queries_recovered").Value(); got != 1 {
		t.Errorf("queries_recovered = %d, want 1", got)
	}
}

func TestDoTerminalStopsImmediately(t *testing.T) {
	var sleeps []time.Duration
	terminal := errors.New("expected message ack, got junk")
	calls := 0
	res, err := Do(recordingPolicy(&sleeps), func(Attempt) error {
		calls++
		return terminal
	})
	if !errors.Is(err, terminal) {
		t.Fatalf("Do = %v, want the terminal error unchanged", err)
	}
	if errors.Is(err, ErrRetriesExhausted) {
		t.Fatal("terminal error wrongly wrapped as retries-exhausted")
	}
	if calls != 1 || res.Attempts != 1 || len(sleeps) != 0 {
		t.Fatalf("calls=%d attempts=%d sleeps=%v, want exactly one attempt", calls, res.Attempts, sleeps)
	}
}

func TestDoExhausts(t *testing.T) {
	reg := telemetry.NewRegistry()
	var sleeps []time.Duration
	pol := recordingPolicy(&sleeps)
	pol.Telemetry = reg
	cause := fmt.Errorf("dial: %w", transport.ErrTimeout)
	res, err := Do(pol, func(Attempt) error { return cause })
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("Do = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("Do = %v, want the last cause on the chain", err)
	}
	if res.Attempts != 4 || res.Recovered {
		t.Fatalf("result = %+v, want 4 unrecovered attempts", res)
	}
	// 100, 200, 400 (capped).
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("backoffs = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v", i, sleeps[i], want[i])
		}
	}
	if got := reg.Counter("queries_exhausted").Value(); got != 1 {
		t.Errorf("queries_exhausted = %d, want 1", got)
	}
}

func TestDoHonorsRetryAfterHint(t *testing.T) {
	var sleeps []time.Duration
	pol := recordingPolicy(&sleeps)
	hintErr := fmt.Errorf("open: %w", hinted{900 * time.Millisecond})
	pol.Retryable = func(error) bool { return true }
	_, err := Do(pol, func(a Attempt) error {
		if a.N == 1 {
			return hintErr
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	// The 900ms hint beats the 100ms nominal backoff.
	if len(sleeps) != 1 || sleeps[0] != 900*time.Millisecond {
		t.Fatalf("backoffs = %v, want the server hint 900ms", sleeps)
	}
}

func TestDoBudgetBoundsRetries(t *testing.T) {
	var sleeps []time.Duration
	pol := recordingPolicy(&sleeps)
	now := time.Unix(0, 0)
	pol.Now = func() time.Time { return now }
	pol.Sleep = func(d time.Duration) {
		sleeps = append(sleeps, d)
		now = now.Add(d)
	}
	pol.Budget = 150 * time.Millisecond
	cause := fmt.Errorf("dial: %w", transport.ErrTimeout)
	res, err := Do(pol, func(Attempt) error { return cause })
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("Do = %v, want ErrRetriesExhausted", err)
	}
	// First backoff (100ms) fits the 150ms budget; the second (200ms)
	// would overrun, so only two attempts run.
	if res.Attempts != 2 || len(sleeps) != 1 {
		t.Fatalf("attempts=%d sleeps=%v, want budget to stop after 2 attempts", res.Attempts, sleeps)
	}
}

func TestDoJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var sleeps []time.Duration
		pol := recordingPolicy(&sleeps)
		pol.Jitter = 0.5
		pol.Seed = 42
		_, err := Do(pol, func(Attempt) error { return fmt.Errorf("x: %w", transport.ErrTimeout) })
		if !errors.Is(err, ErrRetriesExhausted) {
			t.Fatalf("Do = %v", err)
		}
		return sleeps
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("sleep schedules %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded jitter not reproducible: %v vs %v", a, b)
		}
		nominal := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}[i]
		if a[i] > nominal || a[i] < nominal/2 {
			t.Fatalf("jittered delay %v outside [%v, %v]", a[i], nominal/2, nominal)
		}
	}
}

func TestBackoffCappedAtMaxDelay(t *testing.T) {
	pol := Policy{}.withDefaults()
	rng := seqRand(1)
	for n := 1; n <= 12; n++ {
		if d := pol.backoff(n, rng.next); d > pol.MaxDelay {
			t.Errorf("backoff(%d) = %v exceeds cap %v", n, d, pol.MaxDelay)
		}
	}
}

// TestDoRetriesRefusedDial pins the pooled-dial wrapper the party
// commands use: a refused transport.Dial is retried up to MaxAttempts,
// and exhaustion keeps the refusal on the chain.
func TestDoRetriesRefusedDial(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close() // nothing listens there any more
	var sleeps []time.Duration
	pol := recordingPolicy(&sleeps)
	pol.MaxAttempts = 3
	dials := 0
	res, err := Do(pol, func(Attempt) error {
		dials++
		conn, err := transport.Dial(addr)
		if err == nil {
			conn.Close()
		}
		return err
	})
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("Do = %v, want exhaustion wrapping ECONNREFUSED", err)
	}
	if dials != 3 || res.Attempts != 3 || len(sleeps) != 2 {
		t.Fatalf("dials=%d attempts=%d sleeps=%v, want 3 dials with 2 backoffs", dials, res.Attempts, sleeps)
	}
}
