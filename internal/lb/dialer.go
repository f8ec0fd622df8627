package lb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync/atomic"

	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sim"
)

// RetryPolicy tunes the ResilientDialer's failure handling.
type RetryPolicy struct {
	// MaxAttempts bounds dials per request, first try included (default 3).
	MaxAttempts int
	// AttemptTimeout caps each dial attempt in virtual time (default 1s).
	AttemptTimeout sim.Duration
	// BaseBackoff is the sleep before the first retry; each further retry
	// doubles it (default 20ms virtual).
	BaseBackoff sim.Duration
	// MaxBackoff caps the exponential backoff (default 500ms virtual).
	MaxBackoff sim.Duration
	// BudgetCap bounds accumulated tokens (default 10).
	BudgetCap float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = sim.Second
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 20 * sim.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * sim.Millisecond
	}
	if p.BudgetCap <= 0 {
		p.BudgetCap = 10
	}
	return p
}

// budgetRatio is the fraction of a retry token each request earns: at most
// one retry per ten requests in steady state, so retries cannot amplify an
// outage into a storm.
const budgetRatio = 0.1

// maxFailoverCandidates bounds the per-dial candidate walk.
const maxFailoverCandidates = 16

// ResilientDialer wraps the socket layer's Dialer with ring-based backend
// selection, per-attempt timeouts, capped exponential backoff with seeded
// jitter, a token-bucket retry budget, and next-backend failover.
//
// Its DialContext ignores the address host (the ring picks the backend)
// but keeps the port, so an unmodified net/http client pointed at a
// service name ("http://app.spin.test/") fans out across replicas. Like
// the wrapped Dialer, it must be driven from blocking goroutines — one at
// a time for byte-identical replay.
type ResilientDialer struct {
	bal    *Balancer
	s      *netstack.Sockets
	inner  *netstack.Dialer
	policy RetryPolicy
	rand   *sim.Rand

	// budgetBits is the retry token bucket (a float64 via math.Float64bits):
	// mutated only on the Driver's loop (in Driver.Run), readable lock-free
	// by reports.
	budgetBits atomic.Uint64
	reqSeq     uint64

	requests     atomic.Int64
	attempts     atomic.Int64
	retries      atomic.Int64
	failovers    atomic.Int64
	budgetSpent  atomic.Int64
	budgetDenied atomic.Int64
}

// NewResilientDialer wraps a machine's socket layer with balancer-driven
// failover. seed drives request keys and backoff jitter.
func NewResilientDialer(s *netstack.Sockets, bal *Balancer, policy RetryPolicy, seed uint64) *ResilientDialer {
	policy = policy.withDefaults()
	inner := s.Dialer()
	inner.Timeout = policy.AttemptTimeout
	rd := &ResilientDialer{
		bal:    bal,
		s:      s,
		inner:  inner,
		policy: policy,
		rand:   sim.NewRand(seed ^ 0x5e111e27),
	}
	rd.setBudget(policy.BudgetCap / 2) // start half-full: early failures may retry
	return rd
}

// budget / setBudget access the token bucket (float64 behind an atomic;
// writers run on the Driver's loop, readers may be anywhere).
func (rd *ResilientDialer) budget() float64     { return math.Float64frombits(rd.budgetBits.Load()) }
func (rd *ResilientDialer) setBudget(v float64) { rd.budgetBits.Store(math.Float64bits(v)) }

// Dial implements the net.Dial shape; see DialContext.
func (rd *ResilientDialer) Dial(network, address string) (net.Conn, error) {
	return rd.DialContext(context.Background(), network, address)
}

// ErrNoBackends reports a dial with every backend ejected.
var ErrNoBackends = errors.New("lb: no healthy backends")

// ErrBudgetExhausted reports a retry suppressed by the token bucket.
var ErrBudgetExhausted = errors.New("lb: retry budget exhausted")

// DialContext picks a backend from the ring and dials it by name, failing
// over along the key's ring order with backoff between attempts. Every
// retry (attempt past the first) spends one budget token; with the bucket
// empty the dial fails fast instead of piling on.
func (rd *ResilientDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	_, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return nil, fmt.Errorf("lb: dial %s: %w", address, err)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("lb: dial %s: bad port: %w", address, err)
	}
	rd.requests.Add(1)

	var (
		key        uint64
		candidates [maxFailoverCandidates]string
		n          int
	)
	rd.s.Driver().Run(func() {
		rd.setBudget(minf(rd.budget()+budgetRatio, rd.policy.BudgetCap))
		rd.reqSeq++
		key = sim.Mix64(rd.rand.Uint64() ^ rd.reqSeq)
		n = rd.bal.Sequence(key, candidates[:])
	})
	if n == 0 {
		return nil, fmt.Errorf("lb: dial %s: %w", address, ErrNoBackends)
	}

	var lastErr error
	for attempt := 0; attempt < rd.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			// A retry must be paid for, then backed off.
			ok := false
			rd.s.Driver().Run(func() {
				if b := rd.budget(); b >= 1 {
					rd.setBudget(b - 1)
					ok = true
				}
			})
			if !ok {
				rd.budgetDenied.Add(1)
				return nil, fmt.Errorf("lb: dial %s: %w (last error: %v)", address, ErrBudgetExhausted, lastErr)
			}
			rd.budgetSpent.Add(1)
			rd.retries.Add(1)
			rd.sleep(rd.backoff(attempt))
		}
		name := candidates[attempt%n]
		if attempt > 0 && name != candidates[0] {
			rd.failovers.Add(1)
		}
		rd.attempts.Add(1)
		host := rd.bal.Host(name)
		conn, err := rd.inner.DialContext(ctx, network, net.JoinHostPort(host, strconv.FormatUint(port, 10)))
		rd.s.Driver().Run(func() {
			if err == nil {
				rd.bal.ReportSuccess(name)
			} else {
				rd.bal.ReportFailure(name)
			}
		})
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			break
		}
	}
	return nil, fmt.Errorf("lb: dial %s: %w", address, lastErr)
}

// backoff computes the capped exponential backoff with seeded jitter for
// retry number n (n >= 1).
func (rd *ResilientDialer) backoff(n int) sim.Duration {
	d := rd.policy.BaseBackoff << (n - 1)
	if d > rd.policy.MaxBackoff || d <= 0 {
		d = rd.policy.MaxBackoff
	}
	var jitter sim.Duration
	rd.s.Driver().Run(func() {
		jitter = sim.Duration(rd.rand.Uint64() % uint64(d/4+1))
	})
	return d + jitter
}

// sleep blocks the calling goroutine for d of virtual time, driving the
// simulation like any blocking socket call.
func (rd *ResilientDialer) sleep(d sim.Duration) {
	fired := false
	rd.s.Driver().Run(func() {
		rd.s.Stack().Engine().After(d, func() { fired = true })
	})
	rd.s.Driver().WaitUntil(func() bool { return fired })
}

// Metrics emits the dialer's request, attempt, retry and failover counts
// and its retry budget: tokens held, spent and denied. Safe from any
// goroutine.
func (rd *ResilientDialer) Metrics(emit metrics.Emit) {
	emit("lb_client_requests", float64(rd.requests.Load()))
	emit("lb_client_attempts", float64(rd.attempts.Load()))
	emit("lb_client_retries", float64(rd.retries.Load()))
	emit("lb_client_failovers", float64(rd.failovers.Load()))
	emit("lb_client_budget_tokens", rd.budget())
	emit("lb_client_budget_spent", float64(rd.budgetSpent.Load()))
	emit("lb_client_budget_denied", float64(rd.budgetDenied.Load()))
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
