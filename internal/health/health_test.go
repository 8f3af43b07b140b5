package health

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock injected via Config.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testConfig(clk *fakeClock) Config {
	return Config{
		FailureThreshold: 3,
		BaseBackoff:      100 * time.Millisecond,
		MaxBackoff:       1 * time.Second,
		JitterFraction:   -1, // disable jitter: windows must be exact
		Now:              clk.Now,
	}
}

func TestBreakerThreshold(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracker(testConfig(clk))
	b := tr.For("go")

	if got := State(b.Snapshot().StateCode); got != StateHealthy {
		t.Fatalf("initial state = %v, want healthy", got)
	}
	b.Failure(errors.New("boom"))
	if got := State(b.Snapshot().StateCode); got != StateDegraded {
		t.Fatalf("after 1 failure state = %v, want degraded", got)
	}
	b.Failure(errors.New("boom"))
	if got := State(b.Snapshot().StateCode); got != StateDegraded {
		t.Fatalf("after 2 failures state = %v, want degraded", got)
	}
	b.Failure(errors.New("boom"))
	if got := State(b.Snapshot().StateCode); got != StateDown {
		t.Fatalf("after 3 failures state = %v, want down", got)
	}
	// While the window is open no fetch is admitted.
	if ok, _ := b.Allow(); ok {
		t.Fatal("Allow admitted a fetch inside the open window")
	}
	// Degraded/Down never bump the recovery generation.
	if got := tr.Gen(); got != 0 {
		t.Fatalf("gen after failures = %d, want 0", got)
	}
	// Success from down returns to healthy and bumps the generation.
	clk.Advance(150 * time.Millisecond)
	ok, probe := b.Allow()
	if !ok || !probe {
		t.Fatalf("Allow after window = (%v,%v), want probe admitted", ok, probe)
	}
	b.Success()
	if got := State(b.Snapshot().StateCode); got != StateHealthy {
		t.Fatalf("after probe success state = %v, want healthy", got)
	}
	if got := tr.Gen(); got != 1 {
		t.Fatalf("gen after recovery = %d, want 1", got)
	}
	// Failure streak was reset: one new failure only degrades.
	b.Failure(errors.New("boom"))
	if got := State(b.Snapshot().StateCode); got != StateDegraded {
		t.Fatalf("post-recovery failure state = %v, want degraded", got)
	}
}

func TestBreakerHalfOpenSingleFlight(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracker(testConfig(clk))
	b := tr.For("omim")
	for i := 0; i < 3; i++ {
		b.Failure(errors.New("boom"))
	}
	clk.Advance(200 * time.Millisecond)

	// Many concurrent callers racing the open->half-open edge: exactly one
	// may win the probe slot.
	const n = 32
	var admitted, probes int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, probe := b.Allow()
			mu.Lock()
			if ok {
				admitted++
			}
			if probe {
				probes++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if admitted != 1 || probes != 1 {
		t.Fatalf("admitted=%d probes=%d, want exactly one half-open probe", admitted, probes)
	}
	// While the probe is in flight nothing else gets through, even after
	// more time passes.
	clk.Advance(time.Hour)
	if ok, _ := b.Allow(); ok {
		t.Fatal("Allow admitted a second fetch while a probe was in flight")
	}
	// The probe failing re-arms the breaker; the next window must elapse
	// before another probe.
	b.Failure(errors.New("still down"))
	if ok, _ := b.Allow(); ok {
		t.Fatal("Allow admitted a fetch immediately after a failed probe")
	}
	clk.Advance(250 * time.Millisecond) // window doubled to 200ms
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("Allow after doubled window = (%v,%v), want probe", ok, probe)
	}
}

func TestBreakerBackoffMonotonic(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	tr := NewTracker(cfg)
	b := tr.For("locuslink")
	for i := 0; i < 3; i++ {
		b.Failure(errors.New("boom"))
	}

	// Walk the probe/fail cycle: each window must be exactly double the
	// previous (jitter disabled) until the cap, then stay at the cap.
	want := []time.Duration{
		100 * time.Millisecond, // initial open
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1 * time.Second, // capped (MaxBackoff)
		1 * time.Second, // stays capped
	}
	for i, w := range want {
		down, retryIn := b.Down()
		if !down {
			t.Fatalf("cycle %d: breaker not down", i)
		}
		if retryIn != w {
			t.Fatalf("cycle %d: window = %v, want %v", i, retryIn, w)
		}
		clk.Advance(w)
		ok, probe := b.Allow()
		if !ok || !probe {
			t.Fatalf("cycle %d: probe not admitted after window", i)
		}
		b.Failure(errors.New("still down"))
	}
}

func TestBreakerJitterBounds(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.JitterFraction = 0.2
	cfg.Seed = 42
	tr := NewTracker(cfg)
	b := tr.For("prot")
	for i := 0; i < 3; i++ {
		b.Failure(errors.New("boom"))
	}
	down, retryIn := b.Down()
	if !down {
		t.Fatal("breaker not down")
	}
	lo, hi := 80*time.Millisecond, 120*time.Millisecond
	if retryIn < lo || retryIn > hi {
		t.Fatalf("jittered window %v outside [%v,%v]", retryIn, lo, hi)
	}
}
