// Package workload generates the memory reference streams of the paper's
// evaluation: the locking microbenchmark of Section 4.1 and synthetic
// equivalents of the five full-system workloads of Section 5.1.
//
// The paper drove its timing simulator from Simics full-system execution; we
// cannot run DB2, Apache, the JVM, MySQL or Solaris, so each workload is
// replaced by a parameterized generator that reproduces the properties the
// paper identifies as decisive: the miss rate (modeled as think time between
// misses), the fraction of sharing misses (cache-to-cache transfers), and
// the read/write mix. Those are the inputs the paper's results depend on
// (Section 5.1), so the generators stand in for the full-system runs.
package workload

import (
	"repro/internal/coherence"
	"repro/internal/network"
	"repro/internal/sim"
)

// Locking is the microbenchmark of Section 4.1: each processor repeatedly
// acquires and releases generally-uncontended locks, picking a new random
// lock after each release. The lock pool is sized near the per-cache line
// count so that acquires are sharing misses almost exclusively; the paper
// reaches that state by warm-up, we reach it by preheating ownership (see
// core.System.PreheatOwned). ThinkTime models computation while holding or
// between locks (Figure 9's x-axis); the base microbenchmark uses zero.
type Locking struct {
	Locks     int
	ThinkTime sim.Time
	// Exponential draws think time from an exponential distribution with
	// mean ThinkTime instead of a constant.
	Exponential bool
	// lockBase offsets lock addresses away from other workloads' regions.
	lockBase coherence.Addr
}

// NewLocking returns the microbenchmark over the given pool size.
func NewLocking(locks int, think sim.Time) *Locking {
	if locks <= 0 {
		locks = 8192
	}
	return &Locking{Locks: locks, ThinkTime: think}
}

// WarmBlocks lists the lock blocks to preheat so acquires are sharing
// misses from the first access.
func (l *Locking) WarmBlocks() []coherence.Addr {
	out := make([]coherence.Addr, l.Locks)
	for i := range out {
		out[i] = coherence.Addr(i) + l.lockBase
	}
	return out
}

// Next implements core.Workload: one lock acquire (a store that must obtain
// exclusive ownership) per iteration. The release is a cache hit on the
// held M copy and is not modeled separately.
func (l *Locking) Next(rng *sim.RNG, self network.NodeID) (sim.Time, coherence.Op) {
	think := l.ThinkTime
	if l.Exponential && think > 0 {
		think = rng.ExpTime(float64(l.ThinkTime))
	}
	lock := coherence.Addr(rng.Intn(l.Locks)) + l.lockBase
	return think, coherence.Op{Store: true, Addr: lock}
}

// Synthetic models a full-system workload as a stream of L2 misses:
// each step thinks for an exponentially distributed time (the instructions
// between misses on the paper's 4-BIPS processor), then issues either a
// sharing miss (a block in the globally shared pool, likely owned by
// another cache) or a cold/capacity miss (a fresh private block, satisfied
// by memory; stores to such blocks later produce writebacks as the cache
// fills and evicts).
type Synthetic struct {
	// Name labels the workload in reports.
	Name string
	// MeanThink is the mean think time between misses in cycles.
	MeanThink sim.Time
	// SharingFraction is the probability a miss targets the shared pool.
	SharingFraction float64
	// StoreFraction is the probability an access is a store.
	StoreFraction float64
	// SharedBlocks sizes the globally shared pool.
	SharedBlocks int
	// PrivateBlocks sizes each processor's private region; private misses
	// cycle through it so reuse (and eviction traffic) emerges naturally.
	PrivateBlocks int
	// UnicastHintFraction marks that fraction of private misses with the
	// Section 7 unicast hint (e.g. instruction fetches): private-region
	// blocks are never cache-to-cache, so broadcasting for them is waste a
	// hint can eliminate without any adaptivity.
	UnicastHintFraction float64

	privCursor map[network.NodeID]int
}

// WarmBlocks lists the shared-pool blocks to preheat.
func (w *Synthetic) WarmBlocks() []coherence.Addr {
	out := make([]coherence.Addr, w.SharedBlocks)
	for i := range out {
		out[i] = sharedBase + coherence.Addr(i)
	}
	return out
}

// Next implements core.Workload.
func (w *Synthetic) Next(rng *sim.RNG, self network.NodeID) (sim.Time, coherence.Op) {
	think := rng.ExpTime(float64(w.MeanThink))
	store := rng.Float64() < w.StoreFraction
	if rng.Float64() < w.SharingFraction {
		a := sharedBase + coherence.Addr(rng.Intn(w.SharedBlocks))
		return think, coherence.Op{Store: store, Addr: a}
	}
	if w.privCursor == nil {
		w.privCursor = make(map[network.NodeID]int)
	}
	cur := w.privCursor[self]
	w.privCursor[self] = cur + 1
	a := privateBase(self) + coherence.Addr(cur%w.PrivateBlocks)
	hint := w.UnicastHintFraction > 0 && rng.Float64() < w.UnicastHintFraction
	return think, coherence.Op{Store: store, Addr: a, HintUnicast: hint}
}

// Generator is a registered workload generator: a reference stream
// (core.Workload's Next) plus the block list to preheat so the steady-state
// sharing pattern holds from the first access. ByName resolves one.
type Generator interface {
	Next(rng *sim.RNG, self network.NodeID) (sim.Time, coherence.Op)
	WarmBlocks() []coherence.Addr
}

// Migratory is the migratory-sharing microbenchmark from the
// destination-set-prediction follow-up work: data that moves processor to
// processor in read-modify-write episodes (per-object counters, work-queue
// entries, reference counts). Each episode loads a block last written by
// another processor — a sharing miss fetching the previous owner's M copy —
// then stores to it (upgrading to ownership) Writes times, then moves to a
// new random block, migrating the dirty copy onward. The pattern is the
// worst case for indirection protocols (every episode pays the 3-hop
// directory walk) and the cleanest win for owner prediction, which is why
// the follow-up papers single it out.
type Migratory struct {
	// Name labels the workload in reports.
	Name string
	// Blocks sizes the migratory object pool.
	Blocks int
	// MeanThink is the mean think time before an episode, in cycles
	// (exponentially distributed). Within an episode the stores follow at
	// a quarter of it, modeling the short read-modify-write window.
	MeanThink sim.Time
	// Writes is the number of stores per episode after the opening load.
	Writes int

	visits map[network.NodeID]*migVisit
}

// migVisit tracks one processor's in-progress episode.
type migVisit struct {
	addr coherence.Addr
	left int // stores still to issue
}

// NewMigratory returns the migratory workload with its standard shape.
func NewMigratory() *Migratory {
	return &Migratory{Name: "Migratory", Blocks: 512, MeanThink: 200, Writes: 2}
}

// WarmBlocks lists the migratory pool so episodes hit dirty remote copies
// from the first access.
func (w *Migratory) WarmBlocks() []coherence.Addr {
	out := make([]coherence.Addr, w.Blocks)
	for i := range out {
		out[i] = migratoryBase + coherence.Addr(i)
	}
	return out
}

// Next implements core.Workload.
func (w *Migratory) Next(rng *sim.RNG, self network.NodeID) (sim.Time, coherence.Op) {
	if w.visits == nil {
		w.visits = make(map[network.NodeID]*migVisit)
	}
	if v := w.visits[self]; v != nil && v.left > 0 {
		v.left--
		think := rng.ExpTime(float64(w.MeanThink) / 4)
		return think, coherence.Op{Store: true, Addr: v.addr}
	}
	addr := migratoryBase + coherence.Addr(rng.Intn(w.Blocks))
	w.visits[self] = &migVisit{addr: addr, left: w.Writes}
	return rng.ExpTime(float64(w.MeanThink)), coherence.Op{Addr: addr}
}

// ProducerConsumer is the producer-consumer microbenchmark from the
// destination-set-prediction follow-up work: each block has one fixed
// producer that periodically writes it (filling a buffer slot, publishing a
// result) and a population of consumers that read it. Ownership therefore
// ping-pongs between one stable writer and transient readers — the past
// reliably predicts the future — which makes the pattern the owner
// predictor's best case: after one observation the predicted owner is right
// almost every time, unlike Migratory, whose owner changes on every episode.
// It is the paper-adjacent counterpoint the ROADMAP calls for: prediction
// shines exactly where adaptive broadcasting alone cannot help, because the
// needed third party (the producer) is never the home node.
type ProducerConsumer struct {
	// Name labels the workload in reports.
	Name string
	// Blocks sizes the buffer pool.
	Blocks int
	// Producers is the number of distinct producer roles; block i is
	// produced by role i%Producers, and a node with self%Producers == role
	// acts as that role's producer. With Producers equal to the node count
	// every block has exactly one producing node.
	Producers int
	// MeanThink is the mean think time between steps in cycles
	// (exponentially distributed).
	MeanThink sim.Time
	// ProduceFraction is the probability a producer step writes (the rest
	// of its steps consume other roles' blocks, like everyone else).
	ProduceFraction float64
}

// NewProducerConsumer returns the microbenchmark with its standard shape.
func NewProducerConsumer() *ProducerConsumer {
	return &ProducerConsumer{
		Name: "ProducerConsumer", Blocks: 512, Producers: 16,
		MeanThink: 250, ProduceFraction: 0.5,
	}
}

// WarmBlocks lists the buffer pool so consumption hits dirty remote copies
// from the first access. Preheating owner i%nodes matches the producer
// assignment whenever Producers == nodes.
func (w *ProducerConsumer) WarmBlocks() []coherence.Addr {
	out := make([]coherence.Addr, w.Blocks)
	for i := range out {
		out[i] = producerBase + coherence.Addr(i)
	}
	return out
}

// producerOf returns the producing role of a block.
func (w *ProducerConsumer) producerOf(i int) int { return i % w.Producers }

// Next implements core.Workload: pick a block; its producer (re)writes it
// with probability ProduceFraction, every other node — and the producer's
// remaining steps — reads it.
func (w *ProducerConsumer) Next(rng *sim.RNG, self network.NodeID) (sim.Time, coherence.Op) {
	think := rng.ExpTime(float64(w.MeanThink))
	i := rng.Intn(w.Blocks)
	addr := producerBase + coherence.Addr(i)
	if w.producerOf(i) == int(self)%w.Producers && rng.Float64() < w.ProduceFraction {
		return think, coherence.Op{Store: true, Addr: addr}
	}
	return think, coherence.Op{Addr: addr}
}

// Address-space layout: locks at the bottom, the shared pool above them,
// the migratory pool between, then per-node private regions. Block
// addresses are abstract line numbers.
const (
	sharedBase    coherence.Addr = 1 << 24
	migratoryBase coherence.Addr = 1 << 26
	producerBase  coherence.Addr = 1 << 27
	privateStride coherence.Addr = 1 << 20
)

func privateBase(self network.NodeID) coherence.Addr {
	return coherence.Addr(1<<28) + coherence.Addr(self)*privateStride
}

// The five workloads of Table 2, calibrated to the qualitative properties
// the paper reports rather than to absolute miss rates: OLTP has abundant
// sharing misses (the biggest Snooping-over-Directory latency win); SPECjbb
// combines a high miss rate on private heap data with a notably small
// sharing fraction, which is why Directory overtakes Snooping on it once
// broadcasts cost 4x (Figure 12); Slashcode and Barnes-Hut have lower miss
// rates, shrinking all protocol differences. Mean think times are in cycles
// on the paper's 1 cycle/ns target.

// OLTP models the DB2/TPC-C workload.
func OLTP() *Synthetic {
	return &Synthetic{
		Name: "OLTP", MeanThink: 350, SharingFraction: 0.55,
		StoreFraction: 0.40, SharedBlocks: 16384, PrivateBlocks: 32768,
	}
}

// Apache models the Apache/SURGE static web serving workload.
func Apache() *Synthetic {
	return &Synthetic{
		Name: "Apache", MeanThink: 280, SharingFraction: 0.45,
		StoreFraction: 0.35, SharedBlocks: 16384, PrivateBlocks: 32768,
	}
}

// SPECjbb models the server-side Java workload: a high miss rate to private
// heap objects with the small sharing fraction the paper notes.
func SPECjbb() *Synthetic {
	return &Synthetic{
		Name: "SPECjbb", MeanThink: 150, SharingFraction: 0.12,
		StoreFraction: 0.45, SharedBlocks: 8192, PrivateBlocks: 49152,
	}
}

// Slashcode models the dynamic web serving workload (lower miss rate).
func Slashcode() *Synthetic {
	return &Synthetic{
		Name: "Slashcode", MeanThink: 550, SharingFraction: 0.40,
		StoreFraction: 0.35, SharedBlocks: 16384, PrivateBlocks: 32768,
	}
}

// BarnesHut models the SPLASH-2 scientific application (low miss rate,
// read-heavy force computation with migratory updates).
func BarnesHut() *Synthetic {
	return &Synthetic{
		Name: "Barnes-Hut", MeanThink: 650, SharingFraction: 0.35,
		StoreFraction: 0.25, SharedBlocks: 8192, PrivateBlocks: 24576,
	}
}

// ByName returns a fresh instance of a named workload generator, nil if
// unknown.
func ByName(name string) Generator {
	switch name {
	case "oltp", "OLTP":
		return OLTP()
	case "apache", "Apache":
		return Apache()
	case "specjbb", "SPECjbb":
		return SPECjbb()
	case "slashcode", "Slashcode":
		return Slashcode()
	case "barnes", "barnes-hut", "Barnes-Hut":
		return BarnesHut()
	case "migratory", "Migratory":
		return NewMigratory()
	case "producer-consumer", "ProducerConsumer":
		return NewProducerConsumer()
	}
	return nil
}

// Names lists the registered named workloads: the five Table 2 macro
// workloads in the paper's figure order, then the sharing-pattern
// microbenchmarks from the destination-set-prediction follow-ups.
func Names() []string {
	return []string{"Apache", "Barnes-Hut", "OLTP", "Slashcode", "SPECjbb", "Migratory", "ProducerConsumer"}
}
