package core

import "sync"

// Pool recycles Systems across runs. The dominant per-cell cost of a sweep
// after the event kernel rewrite is construction — a fresh System allocates
// the kernel, the interconnect channels, and per node a cache controller
// (with its set-array table), a memory controller and an adaptive unit,
// only to be discarded a few milliseconds later. A Pool keeps quiesced
// Systems bucketed by structural configuration (protocol, node count, cache
// geometry, retry buffer, predictor/checker/watchdog presence) and re-seeds
// one via System.Reset on the next lease, so steady-state sweeps stop
// paying the allocation bill entirely.
//
// Get either reuses a compatible pooled System (resetting it for cfg) or
// builds a fresh one; Put returns a System for reuse. Reset guarantees a
// leased System equals a fresh one built with the same cfg, so pooling
// never changes results — the determinism tests assert exactly that. A
// System must not be used after Put.
//
// What a lease costs depends on cfg.Preheat. When it equals the warm set
// the pooled System last installed — consecutive cells of a sweep that
// runs one workload across bandwidths or broadcast costs — the lease
// rolls back what the previous run touched and installs nothing. Any other
// lease clears every record the previous run left and installs cfg's warm
// set, which costs in proportion to its size.
//
// Once a System has run a shape's largest warm set, a lease allocates
// nothing: Reset takes back every network task, Message and packet the
// last run left in flight, and AttachWorkload rebinds the System's own
// Processors. Pass one shared warm set per workload shape, as the
// experiments do; the System compares it against its own copy.
//
// Pool is safe for concurrent use; each leased System remains
// single-threaded, as all simulations are. The per-bucket free list is
// bounded by MaxFreePerKey to cap retained memory when a sweep visits many
// structural shapes.
type Pool struct {
	mu   sync.Mutex
	free map[structural][]*System

	// MaxFreePerKey bounds idle Systems retained per structural bucket;
	// Put drops the System instead when the bucket is full. Zero selects
	// DefaultMaxFreePerKey. With one leased System per sweep worker, the
	// bucket never needs to exceed the worker count.
	MaxFreePerKey int

	gets, builds, puts uint64
}

// DefaultMaxFreePerKey is the default per-bucket free-list bound.
const DefaultMaxFreePerKey = 32

// NewPool returns an empty System pool.
func NewPool() *Pool {
	return &Pool{free: make(map[structural][]*System)}
}

// Get leases a System for cfg: a pooled structurally compatible one,
// re-seeded via Reset, or a freshly built one. Return it with Put when the
// run's results have been extracted.
func (p *Pool) Get(cfg Config) *System {
	cfg = cfg.withDefaults()
	key := cfg.structuralKey()

	p.mu.Lock()
	p.gets++
	var s *System
	if bucket := p.free[key]; len(bucket) > 0 {
		s = bucket[len(bucket)-1]
		bucket[len(bucket)-1] = nil
		p.free[key] = bucket[:len(bucket)-1]
	} else {
		p.builds++
	}
	p.mu.Unlock()

	if s == nil {
		return NewSystem(cfg)
	}
	if err := s.Reset(cfg); err != nil {
		// Unreachable by construction (the bucket key is the structural
		// key), but fail safe rather than corrupt a run.
		return NewSystem(cfg)
	}
	return s
}

// Put returns a leased System to the pool. Pending events need not be
// drained: each System owns a private kernel, and the next Get's Reset
// drops whatever the previous run left scheduled.
func (p *Pool) Put(s *System) {
	if s == nil {
		return
	}
	key := s.cfg.structuralKey()
	max := p.MaxFreePerKey
	if max <= 0 {
		max = DefaultMaxFreePerKey
	}
	p.mu.Lock()
	p.puts++
	if len(p.free[key]) < max {
		p.free[key] = append(p.free[key], s)
	}
	p.mu.Unlock()
}

// Stats reports lifetime lease and construction counts: gets is total
// leases, builds how many required fresh construction (gets-builds were
// served by reuse), puts how many Systems were returned.
func (p *Pool) Stats() (gets, builds, puts uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.builds, p.puts
}
