package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// Regression: reconnect jitter
// used the global math/rand source, so two runs with identical seeds
// produced different backoff timing — unreproducible chaos soaks. The
// backoff source now belongs to the client and honours RetryPolicy.Seed,
// and the schedule is RetryPolicy.Backoff, the one the front tier runs.

// backoffSequence is the first n waits a client with this policy would
// sleep before redial attempts 0…n-1.
func backoffSequence(p RetryPolicy, n int) []time.Duration {
	c := &Client{Retry: p}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = c.Retry.Backoff(i, c.jitterSource())
	}
	return out
}

// inlineSchedule is the doubling-and-cap loop Client.reconnect carried
// before it called RetryPolicy.Backoff, kept as the reference the
// replacement is checked against.
func inlineSchedule(p RetryPolicy, n int) []time.Duration {
	rng := JitterSource(p.Seed)
	p = p.withDefaults()
	out := make([]time.Duration, 0, n)
	delay := p.BaseDelay
	for i := 0; i < n; i++ {
		if i > 0 {
			delay *= 2
			if delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
		out = append(out, jitterWait(delay, rng))
	}
	return out
}

// TestReconnectScheduleIsRetryPolicyBackoff pins the one backoff
// schedule: under a seed, the waits a client draws equal the old inline
// loop's one for one, and a real reconnect against a dead peer sleeps
// them — never less than each wait, and leaving the client's jitter
// source exactly where Backoff(0…n-1) leaves a reference source.
func TestReconnectScheduleIsRetryPolicyBackoff(t *testing.T) {
	const seed = 42
	ms := time.Millisecond
	for name, p := range map[string]RetryPolicy{
		"defaults":      {Seed: seed},
		"tiny MaxDelay": {Seed: seed, BaseDelay: 2 * ms, MaxDelay: 3 * ms, MaxAttempts: 5},
		"one attempt":   {Seed: seed, BaseDelay: 2 * ms, MaxDelay: 20 * ms, MaxAttempts: 1},
		"eight":         {Seed: seed, BaseDelay: ms, MaxDelay: 16 * ms, MaxAttempts: 8},
	} {
		t.Run(name, func(t *testing.T) {
			n := p.withDefaults().MaxAttempts
			want := inlineSchedule(p, n)
			got := backoffSequence(p, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("attempt %d: Backoff waits %v, the inline schedule %v", i, got[i], want[i])
				}
			}
			if p.BaseDelay == 0 {
				return // the default policy sleeps ≈ 0.5 s; the schedule check above covers it
			}

			cliEnd, srvEnd := net.Pipe()
			srvEnd.Close()
			c := NewClient(cliEnd)
			c.Retry = p
			last := time.Now()
			var gaps []time.Duration
			c.SetRedial(func() (net.Conn, error) {
				now := time.Now()
				gaps = append(gaps, now.Sub(last))
				last = now
				return nil, errors.New("peer is down")
			})
			if err := c.reconnect(context.Background()); !errors.Is(err, ErrDisconnected) {
				t.Fatalf("reconnect against a dead peer: %v, want ErrDisconnected", err)
			}
			if len(gaps) != n {
				t.Fatalf("%d redial attempts, want %d", len(gaps), n)
			}
			for i, g := range gaps {
				if g < want[i] {
					t.Errorf("attempt %d: slept %v, less than the scheduled %v", i, g, want[i])
				}
			}
			ref := JitterSource(seed)
			for i := 0; i < n; i++ {
				p.Backoff(i, ref)
			}
			if c.jitterSource().Int63() != ref.Int63() {
				t.Error("reconnect left the jitter source somewhere other than after Backoff(0…n-1)")
			}
		})
	}
}

func TestBackoffSeedDeterministic(t *testing.T) {
	a := backoffSequence(RetryPolicy{Seed: 42}, 8)
	b := backoffSequence(RetryPolicy{Seed: 42}, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: seeded backoff diverged: %v vs %v", i, a[i], b[i])
		}
	}
	c := backoffSequence(RetryPolicy{Seed: 43}, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical backoff sequences %v", a)
	}
}

func TestBackoffStaysInUpperHalfWindow(t *testing.T) {
	c := &Client{Retry: RetryPolicy{Seed: 7, BaseDelay: 50 * time.Millisecond}}
	delay := c.Retry.BaseDelay
	for attempt := 0; attempt < 6; attempt++ {
		for i := 0; i < 100; i++ {
			w := c.Retry.Backoff(attempt, c.jitterSource())
			if w < delay/2 || w > delay {
				t.Fatalf("Backoff(%d) = %v outside [%v, %v]", attempt, w, delay/2, delay)
			}
		}
		delay = min(2*delay, 2*time.Second)
	}
}

func TestBackoffUnseededClientsDiverge(t *testing.T) {
	// Zero seed draws per-client randomness: a herd of clients must not
	// share one backoff schedule. Two fresh clients agreeing on an 8-draw
	// sequence over a wide window is (1/(25ms+1ns-steps))^8 ≈ never.
	a := backoffSequence(RetryPolicy{}, 8)
	b := backoffSequence(RetryPolicy{}, 8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("unseeded clients produced identical jitter sequences")
	}
}
