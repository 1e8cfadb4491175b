// Package fleet is the runtime resilience layer: a health-aware pool of
// identically compiled inference sessions behind one Run/RunBatch API.
//
// PR 2's reliability subsystem defends a single chip at compile time —
// BIST, sparing, retirement — but a long-running process degrades in
// operation: retention drift accumulates between batches, devices get
// stuck mid-service, and *reliability.DegradedError is terminal for the
// session that hits it. The pool turns those per-replica failures into
// fleet-level graceful degradation. A router steers every request to a
// replica that is provably pristine (generation stamps unchanged since
// its last known-good point), a maintenance scheduler scrubs and
// re-BISTs drifted replicas between batches and recompiles retired ones
// with bounded backoff, and a retry path transparently re-executes
// failed attempts on a healthy replica.
//
// # Determinism contract
//
// The pool — not the session — owns the per-request RNG streams. Each
// request reserves an encoder/noise stream pair from the pool parent in
// request order, and every attempt (first try or retry, on any replica)
// consumes a fresh Clone of that pair through Session.RunReserved. All
// replicas are compiled by the same factory over identically seeded
// chips, and only pristine replicas serve, so the result of a request
// is a pure function of (input, reservation index, pool seed): bitwise
// identical no matter which replica serves it, how many times it is
// retried, or what parallelism RunBatch uses. A Pool seeded like a
// standalone session reproduces that session's Run/RunBatch outputs bit
// for bit.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/crossbar"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Factory compiles one replica: a fresh chip programmed with the same
// model, options and chip seed every call, so replicas are
// interchangeable. It is called K times at pool construction and again
// for every background recompile of a retired replica.
type Factory func(ctx context.Context) (*arch.Session, error)

// Config configures a Pool.
type Config struct {
	// Replicas is the pool size K (≥ 1).
	Replicas int
	// Factory compiles a replica. Sessions must be safe for concurrent
	// runs (not WithSharedEncoder); the pool never calls
	// their own Run entry points, so their WithSeed is irrelevant.
	Factory Factory
	// Seed seeds the pool's RNG parent, from which each request
	// reserves its private stream pair in request order. Seeding it
	// like a standalone session makes pool results bitwise identical to
	// that session's.
	Seed uint64
	// MaxUnmitigatedFrac is the router's serving threshold on a
	// replica's scrub report. The zero value is deliberately strict:
	// any residual fault retires the replica, which is what preserves
	// the bitwise determinism contract (a replica computing through a
	// stuck device would return silently different results).
	MaxUnmitigatedFrac float64
	// RetryBudget bounds the re-executions of one request after a
	// failed attempt (default 2).
	RetryBudget int
	// Parallelism bounds RunBatch worker goroutines (≤ 0: NumCPU).
	// Results are bitwise independent of the setting.
	Parallelism int
	// BackoffBaseTicks / BackoffMaxTicks bound the exponential backoff,
	// measured in maintenance ticks (wall-clock-free, so schedules are
	// deterministic), between recompile attempts of a retired replica
	// (defaults 1 and 8).
	BackoffBaseTicks int
	BackoffMaxTicks  int
	// Rec, when non-nil, receives the pool lifecycle gauges.
	Rec *obs.FleetRecorder
}

// ErrExhausted reports a request that consumed its retry budget (or its
// deadline) without any replica producing a result.
var ErrExhausted = errors.New("fleet: retry budget exhausted")

// replica states. A replica is serveable only when active AND its
// session reports Pristine; suspect marks it for priority scrubbing
// after a failed attempt without blocking the serving path on a write
// lock.
const (
	stateActive int32 = iota
	stateRetired
)

// replica is one pool slot: a session plus its health bookkeeping.
type replica struct {
	id int
	// mu is the run/maintenance gate: attempts hold it shared, every
	// mutator (scrub, retention ageing, fault onset, kill, recompile)
	// holds it exclusively — maintenance never runs concurrently with a
	// run on the same replica.
	mu sync.RWMutex
	// sess is nil while the replica awaits recompile.
	sess *arch.Session
	// state and suspect are read lock-free by the router.
	state   atomic.Int32
	suspect atomic.Bool
	// injectFail makes the next N attempts fail after verification —
	// the chaos harness's mid-flight run fault.
	injectFail atomic.Int32
	// backoffTicks / waitTicks drive recompile backoff; touched only
	// under mu (exclusive) by the maintenance scheduler.
	backoffTicks int
	waitTicks    int
	// report is the replica's last scrub outcome, under mu.
	report reliability.Report
}

// Pool is a health-aware set of interchangeable compiled sessions. All
// methods are safe for concurrent use; Maintain may run concurrently
// with Run/RunBatch (it excludes per replica, not pool-wide).
type Pool struct {
	cfg      Config
	replicas []*replica
	rec      *obs.FleetRecorder

	// mu guards the request-order stream reservation.
	mu      sync.Mutex
	streams *rng.Rand
	// rr is the round-robin routing cursor.
	rr atomic.Uint64
	// inflight counts attempts currently executing on some replica.
	inflight atomic.Int64
}

// NewPool compiles cfg.Replicas sessions through cfg.Factory and
// returns a pool ready to serve. Compilation is sequential, so a
// deterministic factory yields a deterministic fleet.
func NewPool(ctx context.Context, cfg Config) (*Pool, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("fleet: pool needs ≥ 1 replica, got %d", cfg.Replicas)
	}
	if cfg.Factory == nil {
		return nil, errors.New("fleet: pool needs a session factory")
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 2
	}
	if cfg.BackoffBaseTicks <= 0 {
		cfg.BackoffBaseTicks = 1
	}
	if cfg.BackoffMaxTicks <= 0 {
		cfg.BackoffMaxTicks = 8
	}
	p := &Pool{cfg: cfg, rec: cfg.Rec, streams: rng.New(cfg.Seed)}
	for i := 0; i < cfg.Replicas; i++ {
		sess, err := cfg.Factory(ctx)
		if err != nil {
			return nil, fmt.Errorf("fleet: compile replica %d: %w", i, err)
		}
		p.replicas = append(p.replicas, &replica{id: i, sess: sess})
	}
	if p.rec != nil {
		p.rec.SetReplicas(cfg.Replicas)
		p.rec.SetHealthy(cfg.Replicas)
	}
	return p, nil
}

// Ticket is one request's reserved stream pair. The originals stay with
// the ticket; every attempt draws fresh clones, which is what makes a
// retry replay the failed attempt bit for bit. Tickets are issued in
// reservation order, so a request's result is a pure function of
// (input, reservation index, pool seed) no matter when — or grouped
// with what — it is eventually served.
type Ticket struct {
	enc, noise *rng.Rand
}

// reserve draws n stream pairs from the pool parent in request order —
// the same split order a session's own reservation uses, which is why a
// pool and a standalone session with equal seeds agree bitwise.
func (p *Pool) reserve(n int) []Ticket {
	out := make([]Ticket, n)
	p.mu.Lock()
	for i := range out {
		out[i].enc = p.streams.Split()
		out[i].noise = p.streams.Split()
	}
	p.mu.Unlock()
	return out
}

// ReserveTicket draws the next stream pair from the pool parent. A
// serving tier reserves one ticket per request at admission time — in
// admission order — and later redeems it with ServeReserved; because the
// output depends only on (input, ticket, pool seed), the result is
// byte-identical whether the request is then served alone or coalesced
// into any batch.
func (p *Pool) ReserveTicket() Ticket { return p.reserve(1)[0] }

// ServeReserved executes one inference with a caller-reserved ticket,
// with the same routing, retry and failover behaviour as Run. The
// pool's own reservation cursor is untouched.
func (p *Pool) ServeReserved(ctx context.Context, input *tensor.Tensor, tk Ticket) (*arch.RunResult, error) {
	return p.serve(ctx, input, tk)
}

// Run executes one inference on some healthy replica, transparently
// retrying on another replica if the attempt fails, bounded by the
// retry budget and ctx's deadline. Each call reserves the next stream
// pair, so a loop of Run calls is bitwise identical to one RunBatch
// over the same inputs — and to a standalone session with the pool's
// seed.
func (p *Pool) Run(ctx context.Context, input *tensor.Tensor) (*arch.RunResult, error) {
	return p.serve(ctx, input, p.reserve(1)[0])
}

// RunBatch executes a batch across the pool's worker bound and returns
// one result per input, in input order. Stream pairs are reserved in
// input order before any worker starts; attempts and retries may land
// on any replica at any parallelism without changing a single output
// bit. The first request to exhaust its retries fails the batch.
func (p *Pool) RunBatch(ctx context.Context, inputs []*tensor.Tensor) ([]*arch.RunResult, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	tickets := p.reserve(len(inputs))
	results := make([]*arch.RunResult, len(inputs))
	par := p.cfg.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > len(inputs) {
		par = len(inputs)
	}
	if par <= 1 {
		for i, in := range inputs {
			res, err := p.serve(ctx, in, tickets[i])
			if err != nil {
				return nil, fmt.Errorf("fleet: batch input %d: %w", i, err)
			}
			results[i] = res
		}
		return results, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(inputs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := cctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				res, err := p.serve(cctx, inputs[i], tickets[i])
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				results[i] = res
			}
		}()
	}
	for i := range inputs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Prefer the lowest-index real failure over cancellations it caused.
	var first error
	for i, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("fleet: batch input %d: %w", i, err)
		if !errors.Is(err, context.Canceled) {
			return nil, wrapped
		}
		if first == nil {
			first = wrapped
		}
	}
	if first != nil {
		return nil, first
	}
	return results, nil
}

// serve is the routed attempt loop of one request: pick a serveable
// replica, run a fresh clone of the ticket streams on it, and on
// failure retry elsewhere until the budget or deadline runs out. When
// no replica is serveable it falls back to an inline rescue (scrub or
// emergency recompile) rather than failing fast — availability degrades
// to latency, not errors.
func (p *Pool) serve(ctx context.Context, input *tensor.Tensor, tk Ticket) (*arch.RunResult, error) {
	var lastErr error
	lastReplica := -1
	for attempt := 0; attempt <= p.cfg.RetryBudget; attempt++ {
		if err := ctx.Err(); err != nil {
			p.noteFailed()
			return nil, err
		}
		r := p.pick()
		if r == nil {
			r = p.rescue(ctx)
		}
		if r == nil {
			lastErr = errors.New("no serveable replica and rescue failed")
			break
		}
		if attempt > 0 && p.rec != nil {
			p.rec.AddRetry()
			if r.id != lastReplica {
				p.rec.AddFailover()
			}
		}
		lastReplica = r.id
		res, served, err := p.attempt(ctx, r, input, tk)
		if served && err == nil {
			if p.rec != nil {
				p.rec.AddServed(1)
			}
			return res, nil
		}
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
				p.noteFailed()
				return nil, err
			}
			lastErr = err
			// The replica produced a failure: stop routing to it until a
			// scrub clears it.
			r.suspect.Store(true)
			p.updateHealthyGauge()
		}
		// !served without error means the replica stopped being
		// serveable between pick and attempt; the next iteration
		// re-picks without consuming real work.
	}
	p.noteFailed()
	if lastErr == nil {
		lastErr = errors.New("no attempt ran")
	}
	return nil, fmt.Errorf("%w after %d attempts: %w", ErrExhausted, p.cfg.RetryBudget+1, lastErr)
}

// attempt runs one try on one replica under its shared lock. The
// serveability check happens under the same lock, so a replica that
// passes it cannot be mutated mid-run.
func (p *Pool) attempt(ctx context.Context, r *replica, input *tensor.Tensor, tk Ticket) (res *arch.RunResult, served bool, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !p.serveableLocked(r) {
		return nil, false, nil
	}
	if n := r.injectFail.Load(); n > 0 && r.injectFail.CompareAndSwap(n, n-1) {
		return nil, true, fmt.Errorf("fleet: replica %d: injected run fault", r.id)
	}
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	res, err = r.sess.RunReserved(ctx, input, arch.ReservedStreams{
		Enc:   tk.enc.Clone(),
		Noise: tk.noise.Clone(),
	})
	return res, true, err
}

// serveableLocked reports whether a replica may serve a request. Caller
// holds r.mu (shared suffices: every array mutator holds it exclusive,
// so the Pristine walk cannot race a write).
func (p *Pool) serveableLocked(r *replica) bool {
	return r.state.Load() == stateActive && !r.suspect.Load() &&
		r.sess != nil && r.sess.Pristine()
}

// pick returns the next serveable replica in round-robin order, or nil
// when none is. The quick pre-check outside the lock keeps the router
// from queueing behind maintenance on degraded replicas.
func (p *Pool) pick() *replica {
	start := int(p.rr.Add(1) - 1)
	for k := 0; k < len(p.replicas); k++ {
		r := p.replicas[(start+k)%len(p.replicas)]
		if r.state.Load() != stateActive || r.suspect.Load() {
			continue
		}
		r.mu.RLock()
		ok := p.serveableLocked(r)
		r.mu.RUnlock()
		if ok {
			return r
		}
	}
	return nil
}

// rescue restores one replica inline when the whole pool is
// unserveable: first replica that scrubs back to health wins; if every
// live replica is past saving, the first retired one is recompiled
// immediately, ignoring its backoff — an emergency beats politeness.
func (p *Pool) rescue(ctx context.Context) *replica {
	for _, r := range p.replicas {
		if r.state.Load() != stateRetired && p.scrubReplica(ctx, r) {
			return r
		}
	}
	for _, r := range p.replicas {
		if r.state.Load() == stateRetired && p.recompileReplica(ctx, r) {
			return r
		}
	}
	return nil
}

// Maintain runs one maintenance tick: every drifted or suspect replica
// is scrubbed back to pristine (or retired when past the policy), and
// retired replicas whose backoff expired are recompiled. Each replica
// is handled under its exclusive lock, so maintenance never overlaps a
// run on the same replica while the rest of the pool keeps serving.
// Call it between batches, or from a background loop.
func (p *Pool) Maintain(ctx context.Context) error {
	for _, r := range p.replicas {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch r.state.Load() {
		case stateRetired:
			r.mu.Lock()
			if r.waitTicks > 0 {
				r.waitTicks--
				r.mu.Unlock()
				continue
			}
			r.mu.Unlock()
			p.recompileReplica(ctx, r)
		default:
			r.mu.RLock()
			clean := p.serveableLocked(r)
			r.mu.RUnlock()
			if !clean {
				p.scrubReplica(ctx, r)
			}
		}
	}
	p.updateHealthyGauge()
	return nil
}

// scrubReplica runs an online scrub under the replica's exclusive lock
// and either returns it to service or retires it. Reports whether the
// replica is serveable afterwards.
func (p *Pool) scrubReplica(ctx context.Context, r *replica) bool {
	r.mu.Lock()
	if r.sess == nil || r.state.Load() == stateRetired {
		r.mu.Unlock()
		return false
	}
	if r.suspect.Load() || !r.sess.Pristine() {
		rpt, err := r.sess.Scrub(ctx)
		if p.rec != nil {
			p.rec.AddScrub()
		}
		r.report = rpt
		if ctx.Err() != nil {
			// An interrupted scrub proves nothing about the hardware;
			// leave the replica for the next tick.
			r.mu.Unlock()
			return false
		}
		if err != nil || !rpt.Healthy(p.cfg.MaxUnmitigatedFrac) {
			p.retireLocked(r)
			r.mu.Unlock()
			p.updateHealthyGauge()
			return false
		}
		r.suspect.Store(false)
	}
	ok := p.serveableLocked(r)
	r.mu.Unlock()
	p.updateHealthyGauge()
	return ok
}

// recompileReplica rebuilds a retired replica through the factory under
// its exclusive lock. On failure the backoff doubles, bounded by
// BackoffMaxTicks. Reports whether the replica returned to service.
func (p *Pool) recompileReplica(ctx context.Context, r *replica) bool {
	r.mu.Lock()
	if r.state.Load() != stateRetired {
		ok := p.serveableLocked(r)
		r.mu.Unlock()
		return ok
	}
	sess, err := p.cfg.Factory(ctx)
	if err != nil {
		r.backoffTicks *= 2
		if r.backoffTicks < p.cfg.BackoffBaseTicks {
			r.backoffTicks = p.cfg.BackoffBaseTicks
		}
		if r.backoffTicks > p.cfg.BackoffMaxTicks {
			r.backoffTicks = p.cfg.BackoffMaxTicks
		}
		r.waitTicks = r.backoffTicks
		r.mu.Unlock()
		return false
	}
	r.sess = sess
	r.backoffTicks = 0
	r.waitTicks = 0
	r.suspect.Store(false)
	r.state.Store(stateActive)
	r.report = reliability.Report{}
	r.mu.Unlock()
	if p.rec != nil {
		p.rec.AddRecompile()
	}
	p.updateHealthyGauge()
	return true
}

// retireLocked pulls a replica from service. Caller holds r.mu
// exclusively. The session is dropped — a retired replica only returns
// through a fresh factory compile.
func (p *Pool) retireLocked(r *replica) {
	r.sess = nil
	r.state.Store(stateRetired)
	r.backoffTicks = p.cfg.BackoffBaseTicks
	r.waitTicks = r.backoffTicks
	if p.rec != nil {
		p.rec.AddRetirement()
	}
}

// Healthy returns how many replicas are currently serveable.
func (p *Pool) Healthy() int {
	n := 0
	for _, r := range p.replicas {
		r.mu.RLock()
		if p.serveableLocked(r) {
			n++
		}
		r.mu.RUnlock()
	}
	return n
}

// Replicas returns the pool size.
func (p *Pool) Replicas() int { return len(p.replicas) }

// PoolStats is a point-in-time occupancy snapshot of the pool: the
// replica state partition plus the number of runs executing right now.
// It is the introspection surface a serving tier's health endpoint
// reads directly, instead of inferring pool health from Prometheus
// text. Active + Suspect + Retired == Replicas always; Healthy is the
// subset of Active that is also pristine and would pass the router's
// serveability check this instant.
type PoolStats struct {
	// Replicas is the configured pool size.
	Replicas int `json:"replicas"`
	// Active counts replicas in service and not under suspicion;
	// Suspect counts in-service replicas awaiting a clearing scrub after
	// a failed attempt; Retired counts replicas awaiting recompile.
	Active  int `json:"active"`
	Suspect int `json:"suspect"`
	Retired int `json:"retired"`
	// Healthy counts replicas that would pass the serveability check
	// right now (active, not suspect, session pristine).
	Healthy int `json:"healthy"`
	// InFlight counts attempts currently executing on some replica.
	InFlight int64 `json:"in_flight"`
}

// Stats snapshots the pool occupancy. The state partition is read
// lock-free; Healthy takes each replica's shared lock briefly for the
// pristineness walk. Concurrent routing and maintenance may move
// replicas between fields mid-snapshot; callers wanting exact totals
// quiesce the pool first.
func (p *Pool) Stats() PoolStats {
	st := PoolStats{Replicas: len(p.replicas), InFlight: p.inflight.Load()}
	for _, r := range p.replicas {
		switch {
		case r.state.Load() == stateRetired:
			st.Retired++
		case r.suspect.Load():
			st.Suspect++
		default:
			st.Active++
		}
		r.mu.RLock()
		if p.serveableLocked(r) {
			st.Healthy++
		}
		r.mu.RUnlock()
	}
	return st
}

// Report returns replica i's last scrub report.
func (p *Pool) Report(i int) reliability.Report {
	r := p.replicas[i]
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.report
}

// updateHealthyGauge refreshes the healthy-replica gauge.
func (p *Pool) updateHealthyGauge() {
	if p.rec != nil {
		p.rec.SetHealthy(p.Healthy())
	}
}

// noteFailed counts a request that returned an error to the caller.
func (p *Pool) noteFailed() {
	if p.rec != nil {
		p.rec.AddFailed(1)
	}
}

// Kill drops replica i's session immediately — the chaos harness's
// crash fault. The replica re-enters service through the normal
// recompile path. Blocks until in-flight runs on the replica finish.
func (p *Pool) Kill(i int) {
	r := p.replicas[i]
	r.mu.Lock()
	if r.state.Load() != stateRetired {
		p.retireLocked(r)
	}
	r.mu.Unlock()
	p.updateHealthyGauge()
}

// AgeReplica advances replica i's retention clock by steps — a drift
// burst. The replica stops being pristine and is scrubbed back by the
// next Maintain (or inline rescue).
func (p *Pool) AgeReplica(i int, steps int64) {
	r := p.replicas[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess != nil {
		r.sess.AgeRetention(steps)
	}
}

// InjectStuck strikes replica i with permanently stuck devices at the
// given per-device fraction — in-service fault onset. Deterministic for
// a fixed seed. Returns the number of devices stuck.
func (p *Pool) InjectStuck(i int, seed uint64, fraction float64) int {
	r := p.replicas[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess == nil {
		return 0
	}
	return r.sess.InjectStuckFaults(seed, fraction, crossbar.StuckAP)
}

// InjectRunFaults arms replica i to fail its next n attempts after
// passing the serveability check — a detected mid-flight run fault,
// exercising the retry path without touching the arrays.
func (p *Pool) InjectRunFaults(i int, n int) {
	p.replicas[i].injectFail.Add(int32(n))
}
