// Package health tracks per-source availability for the mediator's
// federated fetch path. Each source gets a three-state machine driven by a
// circuit breaker:
//
//	healthy  — no recent failures; fetches flow normally.
//	degraded — recent consecutive failures below the threshold; fetches
//	           still flow (each one doubles as a recovery check).
//	down     — the consecutive-failure threshold tripped. Fetches are
//	           refused until a jittered backoff window elapses, then
//	           exactly one half-open probe is admitted; success closes the
//	           breaker, failure re-opens it with a doubled window.
//
// The paper's freshness property ("queries always see current source
// data") assumes remote annotation databases answer. They do not, always —
// the breaker is what stops the mediator from hammering a LocusLink or GO
// mirror that is down, and the state machine is what the degraded-mode
// fusion and the /readyz endpoint report.
//
// A Tracker aggregates the breakers and maintains a recovery generation:
// a counter bumped every time a source transitions back to healthy. The
// mediator folds it into its source fingerprint, so answers computed
// without a failed source are invalidated the moment the source recovers
// — degraded results never outlive the outage that forced them.
package health

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// State is one source's availability state.
type State int

const (
	// StateHealthy: no recent failures.
	StateHealthy State = iota
	// StateDegraded: consecutive failures below the breaker threshold;
	// the source still participates in fetches.
	StateDegraded
	// StateDown: the breaker is open; only half-open probes may fetch.
	StateDown
)

// String names the state the way /statsz and the CLI render it.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// Config tunes the breakers a Tracker hands out. The zero value selects
// every default.
type Config struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// breaker (degraded -> down). <= 0 selects DefaultFailureThreshold.
	FailureThreshold int
	// BaseBackoff is the first open window; each failed probe doubles it
	// up to MaxBackoff. <= 0 selects DefaultBaseBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the open window. <= 0 selects DefaultMaxBackoff.
	MaxBackoff time.Duration
	// JitterFraction randomizes each open window by +/- this fraction so
	// many processes probing one recovered source do not thundering-herd
	// it. < 0 disables jitter; 0 selects DefaultJitterFraction.
	JitterFraction float64
	// Seed seeds the deterministic jitter stream (0 selects a fixed
	// default — jitter is seeded, never ambient randomness).
	Seed uint64
	// Now overrides the clock (tests drive backoff windows with it).
	// nil selects obs.Now.
	Now func() time.Time
}

// Breaker defaults: trip after 3 consecutive failures, first probe after
// ~200ms, never wait more than 30s, windows jittered by +/-20%.
const (
	DefaultFailureThreshold = 3
	DefaultBaseBackoff      = 200 * time.Millisecond
	DefaultMaxBackoff       = 30 * time.Second
	DefaultJitterFraction   = 0.2
)

func (c Config) withDefaults() Config {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = DefaultFailureThreshold
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = DefaultBaseBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.MaxBackoff < c.BaseBackoff {
		c.MaxBackoff = c.BaseBackoff
	}
	if c.JitterFraction == 0 {
		c.JitterFraction = DefaultJitterFraction
	} else if c.JitterFraction < 0 {
		c.JitterFraction = 0
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	if c.Now == nil {
		c.Now = obs.Now
	}
	return c
}

// DownError is returned (wrapped) when a fetch is refused because the
// source's breaker is open. The mediator classifies it to skip the source
// without charging the breaker a fresh failure.
type DownError struct {
	Source  string
	RetryIn time.Duration
}

func (e *DownError) Error() string {
	if e.RetryIn > 0 {
		return fmt.Sprintf("health: source %s is down (breaker open, next probe in %v)",
			e.Source, e.RetryIn.Round(time.Millisecond))
	}
	return fmt.Sprintf("health: source %s is down (half-open probe in flight)", e.Source)
}

// SourceHealth is one breaker's observable state — the unit /statsz, the
// `annoda sources` view and the health gauges expose.
type SourceHealth struct {
	Source              string        `json:"source"`
	State               string        `json:"state"`
	ConsecutiveFailures int           `json:"consecutive_failures,omitempty"`
	Successes           uint64        `json:"successes"`
	Failures            uint64        `json:"failures"`
	Retries             uint64        `json:"retries"`
	Probes              uint64        `json:"probes"`
	Opens               uint64        `json:"breaker_opens"`
	LastError           string        `json:"last_error,omitempty"`
	RetryIn             time.Duration `json:"-"`
	// StateCode is the numeric state (0 healthy, 1 degraded, 2 down) the
	// metrics gauge exports.
	StateCode int `json:"-"`
}

// Breaker is one source's circuit breaker. All methods are safe for
// concurrent use.
type Breaker struct {
	name string
	cfg  Config
	// onTransition fires (outside no lock the caller can see, but inside
	// b.mu) on every state change; the Tracker uses it to maintain the
	// recovery generation.
	onTransition func(from, to State)

	mu      sync.Mutex
	state   State
	consec  int           // consecutive final failures
	window  time.Duration // current open window (0 until first open)
	until   time.Time     // when down: earliest next probe
	probing bool          // a half-open probe is in flight
	rng     uint64        // splitmix64 state for jitter
	lastErr string

	successes uint64
	failures  uint64
	retries   uint64
	probes    uint64
	opens     uint64
}

func newBreaker(name string, cfg Config, onTransition func(from, to State)) *Breaker {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &Breaker{name: name, cfg: cfg, onTransition: onTransition, rng: cfg.Seed ^ h.Sum64()}
}

// Allow reports whether a fetch attempt may proceed. When the breaker is
// open it admits at most one probe per elapsed backoff window; probe is
// true for exactly that attempt (the caller must follow it with Success or
// Failure, which closes or re-arms the breaker).
func (b *Breaker) Allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateDown {
		return true, false
	}
	if b.probing || b.cfg.Now().Before(b.until) {
		return false, false
	}
	b.probing = true
	b.probes++
	return true, true
}

// Success records a successful fetch: the failure streak resets and the
// source returns to healthy (firing the recovery transition when it was
// not).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.successes++
	b.consec = 0
	b.window = 0
	b.probing = false
	b.lastErr = ""
	if prev := b.state; prev != StateHealthy {
		b.state = StateHealthy
		if b.onTransition != nil {
			b.onTransition(prev, StateHealthy)
		}
	}
}

// Failure records a final (post-retry) fetch failure. A failed half-open
// probe re-opens the breaker with a doubled window; crossing the
// consecutive-failure threshold opens it for the first time.
func (b *Breaker) Failure(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.consec++
	if err != nil {
		b.lastErr = err.Error()
	}
	prev := b.state
	switch {
	case prev == StateDown:
		// A probe failed: double the window (capped) and re-arm.
		b.probing = false
		b.window = min(b.window*2, b.cfg.MaxBackoff)
		b.until = b.cfg.Now().Add(b.jittered(b.window))
	case b.consec >= b.cfg.FailureThreshold:
		b.state = StateDown
		b.window = b.cfg.BaseBackoff
		b.until = b.cfg.Now().Add(b.jittered(b.window))
		b.opens++
		if b.onTransition != nil {
			b.onTransition(prev, StateDown)
		}
	case prev == StateHealthy:
		b.state = StateDegraded
		if b.onTransition != nil {
			b.onTransition(prev, StateDegraded)
		}
	}
}

// Retry counts one in-fetch retry attempt (bounded retries happen inside a
// single fetch before the failure is charged to the breaker).
func (b *Breaker) Retry() {
	b.mu.Lock()
	b.retries++
	b.mu.Unlock()
}

// Down reports whether the breaker is open, and if so how long until the
// next probe is admitted (0 when a probe is already due or in flight).
func (b *Breaker) Down() (down bool, retryIn time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateDown {
		return false, 0
	}
	if d := b.until.Sub(b.cfg.Now()); d > 0 {
		return true, d
	}
	return true, 0
}

// Snapshot returns the breaker's observable state.
func (b *Breaker) Snapshot() SourceHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	sh := SourceHealth{
		Source:              b.name,
		State:               b.state.String(),
		StateCode:           int(b.state),
		ConsecutiveFailures: b.consec,
		Successes:           b.successes,
		Failures:            b.failures,
		Retries:             b.retries,
		Probes:              b.probes,
		Opens:               b.opens,
		LastError:           b.lastErr,
	}
	if b.state == StateDown {
		if d := b.until.Sub(b.cfg.Now()); d > 0 {
			sh.RetryIn = d
		}
	}
	return sh
}

// jittered randomizes a window by +/- JitterFraction using the breaker's
// seeded splitmix64 stream. Called with b.mu held.
func (b *Breaker) jittered(d time.Duration) time.Duration {
	if b.cfg.JitterFraction <= 0 || d <= 0 {
		return d
	}
	b.rng += 0x9e3779b97f4a7c15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// u in [0,1): 53 random bits over 2^53.
	u := float64(z>>11) / (1 << 53)
	f := 1 + b.cfg.JitterFraction*(2*u-1)
	return time.Duration(float64(d) * f)
}

// Tracker owns the per-source breakers of one mediator. The zero source
// set grows lazily: For creates a healthy breaker on first use.
type Tracker struct {
	cfg Config

	mu       sync.Mutex
	breakers map[string]*Breaker

	// gen counts recovery transitions (any state -> healthy). The
	// mediator folds it into the source fingerprint, so results computed
	// while a source was failing are invalidated when it comes back.
	gen atomic.Uint64
}

// NewTracker builds a tracker; zero cfg selects every default.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg.withDefaults(), breakers: map[string]*Breaker{}}
}

// For returns the breaker for a source, creating a healthy one on first
// use.
func (t *Tracker) For(name string) *Breaker {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.breakers[name]
	if b == nil {
		b = newBreaker(name, t.cfg, func(from, to State) {
			if to == StateHealthy {
				t.gen.Add(1)
			}
		})
		t.breakers[name] = b
	}
	return b
}

// Gen returns the recovery generation: it moves exactly when some source
// transitions back to healthy.
func (t *Tracker) Gen() uint64 { return t.gen.Load() }
