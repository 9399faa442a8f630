package core

import (
	"repro/internal/coherence"
	"repro/internal/network"
	"repro/internal/sim"
)

// Workload generates the memory reference stream of one processor: think
// time (cycles of computation between memory-system events) and the next
// operation. Implementations live in internal/workload.
type Workload interface {
	Next(rng *sim.RNG, self network.NodeID) (think sim.Time, op coherence.Op)
}

// Processor is the paper's blocking processor model: it interleaves think
// time with blocking requests to the unified L2, at most one outstanding
// demand miss at a time.
//
// The fetch-execute loop runs on two closures bound once at construction
// (issueFn, doneFn) with the pending operation carried in a field — the
// processor is blocking, so at most one operation is in flight and the
// field is never overwritten early. A billion-op run therefore allocates
// nothing in this loop.
type Processor struct {
	sys     *System
	node    *Node
	gen     Workload
	rng     *sim.RNG
	stopped bool

	pendingOp coherence.Op
	issueFn   func()
	doneFn    func()

	// Completed counts finished memory operations.
	Completed uint64
	// ThinkTime accumulates simulated compute time (diagnostics).
	ThinkTime sim.Time
}

// NewProcessor builds a processor for a node.
func NewProcessor(sys *System, node *Node, gen Workload) *Processor {
	p := &Processor{sys: sys, node: node, rng: sim.NewRNG(0)}
	p.issueFn = p.issue
	p.doneFn = p.opDone
	p.bind(gen)
	return p
}

// bind returns p to its freshly built state for gen and the system's
// current seed: AttachWorkload rebinds a node's Processor this way on every
// lease instead of building another.
func (p *Processor) bind(gen Workload) {
	p.gen = gen
	p.rng.Reseed(p.sys.cfg.Seed*1000003 + uint64(p.node.ID)*7919 + 17)
	p.stopped = false
	p.pendingOp = coherence.Op{}
	p.Completed = 0
	p.ThinkTime = 0
}

// Start begins the fetch-execute loop.
func (p *Processor) Start() { p.next() }

// Stop halts the loop after the current operation completes.
func (p *Processor) Stop() { p.stopped = true }

func (p *Processor) next() {
	if p.stopped {
		return
	}
	think, op := p.gen.Next(p.rng, p.node.ID)
	p.ThinkTime += think
	p.pendingOp = op
	if think > 0 {
		p.sys.Kernel.Schedule(think, p.issueFn)
	} else {
		p.issue()
	}
}

func (p *Processor) issue() {
	if p.stopped {
		return
	}
	p.node.Cache.Access(p.pendingOp, p.doneFn)
}

func (p *Processor) opDone() {
	p.Completed++
	p.sys.totalOps++
	p.next()
}
