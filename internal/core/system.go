// Package core assembles the paper's target system: N integrated
// processor/memory nodes, each with a blocking processor, an L2 cache
// controller, a slice of the globally shared memory (with home state), and a
// single full-duplex endpoint link into the interconnect. It is the public
// entry point the examples, experiments, and benchmarks build on.
package core

import (
	"fmt"
	"slices"

	"repro/internal/adaptive"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/network"
	"repro/internal/sim"
)

// Protocol selects a coherence protocol for the system.
type Protocol int

// Protocols. The two Bash* ablations run the hybrid engine with a static
// mask policy, separating the value of adaptivity from the hybrid machinery.
const (
	Snooping Protocol = iota
	Directory
	BASH
	BashAlwaysBroadcast
	BashAlwaysUnicast
	BashSwitch // the unstable all-or-nothing mechanism (Section 2.1)
	// BashPredictive is BASH with the Section 7 destination-set predictor:
	// non-broadcast requests add the predicted owner to their mask.
	BashPredictive
)

func (p Protocol) String() string {
	switch p {
	case Snooping:
		return "Snooping"
	case Directory:
		return "Directory"
	case BASH:
		return "BASH"
	case BashAlwaysBroadcast:
		return "BASH-bcast"
	case BashAlwaysUnicast:
		return "BASH-ucast"
	case BashSwitch:
		return "BASH-switch"
	case BashPredictive:
		return "BASH-pred"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Config describes a target system.
type Config struct {
	Protocol Protocol
	Nodes    int
	// BandwidthMBs is the endpoint link bandwidth per node (MB/s).
	BandwidthMBs float64
	// BroadcastCost multiplies the link occupancy of broadcast requests
	// (4 for the paper's large-system approximation; default 1).
	BroadcastCost float64
	// Cache geometry; zero selects the paper's 4 MB 4-way 64 B L2.
	Cache cache.Config
	// Adaptive parameterizes the BASH mechanism (defaults per the paper).
	Adaptive adaptive.Config
	// RetryBuffer bounds concurrently retried transactions per memory
	// controller (BASH); 0 selects the default.
	RetryBuffer int
	// Predictor attaches the destination-set predictor to any BASH variant
	// (implied by Protocol BashPredictive). Size 0 selects the default.
	Predictor     bool
	PredictorSize int
	// EnableChecker turns on SWMR/value invariant checking (tests).
	EnableChecker bool
	// WatchdogInterval trips on loss of forward progress; 0 disables.
	WatchdogInterval sim.Time
	// Seed perturbs workloads and per-node LFSRs.
	Seed uint64
	// JitterNs adds uniform random delay to message traversals (testing).
	JitterNs int
	// NoRecycle disables the hot-path free lists (packets, network
	// messages, line/txn records, directory entries): every record is
	// allocated fresh and dropped to the garbage collector. Results are
	// byte-identical either way — the determinism tests assert it — so the
	// switch exists for benchmarking the free lists and for fault
	// isolation. It is per-run state: Reset may flip it freely.
	NoRecycle bool
	// Preheat is the warm set: NewSystem and Reset install block i as
	// Modified at node i % Nodes with token i+1, exactly as a loop of
	// PreheatOwned(Preheat[i], i%Nodes, i+1) would. It is per-run state,
	// not part of the structural key. A Reset whose Preheat equals the
	// list already installed returns to it by undoing the previous run
	// instead of clearing and installing again; see Reset.
	Preheat []coherence.Addr
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.BandwidthMBs == 0 {
		c.BandwidthMBs = 1600
	}
	if c.Cache.Sets == 0 || c.Cache.Ways == 0 {
		c.Cache = cache.DefaultConfig()
	}
	return c
}

// structural identifies the allocation shape of a System: the fields that
// size or select its large structures (controllers, arrays, directory and
// retry tables, predictor, checker, watchdog). Two defaulted Configs with
// equal structural keys describe Systems that differ only in per-run
// parameters — bandwidth, seeds, jitter, adaptive tuning, watchdog interval
// — all of which Reset re-applies, so a System built for one can be reused
// for the other. Pool buckets by this key.
type structural struct {
	protocol    Protocol
	nodes       int
	sets, ways  int
	retryBuffer int
	predictor   bool
	predSize    int
	checker     bool
	watchdog    bool
}

// structuralKey derives the reuse-compatibility key from a defaulted Config.
func (c Config) structuralKey() structural {
	return structural{
		protocol:    c.Protocol,
		nodes:       c.Nodes,
		sets:        c.Cache.Sets,
		ways:        c.Cache.Ways,
		retryBuffer: c.RetryBuffer,
		predictor:   c.Predictor || c.Protocol == BashPredictive,
		predSize:    c.PredictorSize,
		checker:     c.EnableChecker,
		watchdog:    c.WatchdogInterval > 0,
	}
}

// Node is one integrated processor/memory node.
type Node struct {
	ID       network.NodeID
	Cache    coherence.CacheController
	Mem      coherence.MemController
	Adaptive *adaptive.Adaptive // non-nil for Protocol BASH / BashSwitch
	Proc     *Processor
	sys      *System
}

// DeliverOrdered implements network.Handler: both the cache and the memory
// slice snoop the totally ordered network. The node holds the packet's
// per-delivery reference for the duration of the call and releases it when
// both controllers have returned; a controller that parks the packet
// (deferral, MemWB waiting, a delayed directory apply) retains its own
// reference first.
func (n *Node) DeliverOrdered(m *network.Message) {
	n.sys.recordOrdered(n.ID, m)
	pkt := m.Payload.(*coherence.Packet)
	n.sys.traffic.record(pkt.Kind, m.Size)
	n.Cache.OnOrdered(m)
	n.Mem.OnOrdered(m)
	n.sys.packets.Release(pkt)
}

// DeliverUnordered implements network.Handler, routing by message kind and
// releasing the delivery's packet reference afterwards.
func (n *Node) DeliverUnordered(m *network.Message) {
	n.sys.recordUnordered(n.ID, m)
	pkt := m.Payload.(*coherence.Packet)
	n.sys.traffic.record(pkt.Kind, m.Size)
	switch pkt.Kind {
	case coherence.Data, coherence.Ack, coherence.Nack:
		n.Cache.OnUnordered(pkt)
	case coherence.DataWB, coherence.GetS, coherence.GetM, coherence.PutM:
		n.Mem.OnUnordered(pkt)
	default:
		panic(fmt.Sprintf("core: unroutable %s", pkt.Kind))
	}
	n.sys.packets.Release(pkt)
}

// System is a complete simulated machine.
type System struct {
	Kernel   *sim.Kernel
	Net      *network.Network
	Nodes    []*Node
	Checker  *coherence.Checker
	Watchdog *sim.Watchdog
	cfg      Config
	// preheated is a copy of the warm set installed and checkpointed by
	// the last NewSystem or Reset, or empty when none was.
	preheated []coherence.Addr
	rollbacks uint64 // Resets that rolled back (tests)
	trace     *Trace
	traffic   *TrafficStats
	packets   *coherence.Recycler // shared packet + record free lists
	totalOps  uint64              // running sum of Processor.Completed (hot-path cache)
}

// Recycler exposes the system's shared free lists (tests and diagnostics:
// after Quiesce, Live() reports leaked packets — zero in a correct run).
func (s *System) Recycler() *coherence.Recycler { return s.packets }

// NewSystem builds and wires a machine; processors are attached with
// AttachWorkload and started by Run/Measure.
//
// Construction is two-phase: build allocates every structure sized by the
// structural config (kernel, interconnect, controllers, checker, watchdog),
// then wire seeds the per-run state (bandwidth, seeds, adaptive tuning,
// watchdog interval). Reset re-runs only the wire phase, so a pooled System
// re-seeded for a compatible config is indistinguishable from a fresh one.
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	s := build(cfg)
	s.wire(cfg)
	return s
}

// build is the allocation phase: it constructs everything whose shape is
// fixed by the structural config, leaving per-run state to wire.
func build(cfg Config) *System {
	k := sim.NewKernel()
	net := network.New(k, network.Config{
		Nodes:         cfg.Nodes,
		BandwidthMBs:  cfg.BandwidthMBs,
		BroadcastCost: cfg.BroadcastCost,
		JitterNs:      cfg.JitterNs,
		JitterSeed:    cfg.Seed,
		Recycle:       !cfg.NoRecycle,
	})
	s := &System{
		Kernel:  k,
		Net:     net,
		cfg:     cfg,
		traffic: &TrafficStats{},
		packets: coherence.NewRecycler(),
	}
	if cfg.EnableChecker {
		s.Checker = coherence.NewChecker()
	}
	if cfg.WatchdogInterval > 0 {
		s.Watchdog = sim.NewWatchdog(k, cfg.WatchdogInterval, nil)
	}
	homeOf := func(a coherence.Addr) network.NodeID {
		return network.NodeID(a % coherence.Addr(cfg.Nodes))
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := network.NodeID(i)
		env := coherence.Env{
			Kernel:   k,
			Net:      net,
			Self:     id,
			HomeOf:   homeOf,
			Checker:  s.Checker,
			Recycler: s.packets,
		}
		if s.Watchdog != nil {
			env.Progress = s.Watchdog.Progress
		}
		n := &Node{ID: id, sys: s}
		switch cfg.Protocol {
		case Snooping:
			n.Cache = coherence.NewSnoopCache(env, cfg.Cache)
			n.Mem = coherence.NewSnoopMem(env)
		case Directory:
			n.Cache = coherence.NewDirCache(env, cfg.Cache)
			n.Mem = coherence.NewDirMem(env)
		case BASH, BashSwitch, BashPredictive:
			// The adaptive unit's parameters (threshold, interval, width,
			// seed) are per-run state; wire re-applies them and arms the
			// sampler.
			ad := adaptive.New(cfg.Adaptive, net.InChannel(id))
			n.Adaptive = ad
			bc := coherence.NewBashCache(env, cfg.Cache, ad)
			if cfg.Predictor || cfg.Protocol == BashPredictive {
				bc.EnablePredictor(cfg.PredictorSize)
			}
			n.Cache = bc
			n.Mem = coherence.NewBashMem(env, cfg.RetryBuffer)
		case BashAlwaysBroadcast:
			n.Cache = coherence.NewBashCache(env, cfg.Cache, adaptive.AlwaysBroadcast{})
			n.Mem = coherence.NewBashMem(env, cfg.RetryBuffer)
		case BashAlwaysUnicast:
			bc := coherence.NewBashCache(env, cfg.Cache, adaptive.AlwaysUnicast{})
			if cfg.Predictor {
				bc.EnablePredictor(cfg.PredictorSize)
			}
			n.Cache = bc
			n.Mem = coherence.NewBashMem(env, cfg.RetryBuffer)
		default:
			panic(fmt.Sprintf("core: unknown protocol %v", cfg.Protocol))
		}
		if s.Checker != nil {
			s.Checker.Register(n.Cache)
		}
		net.SetHandler(id, n)
		s.Nodes = append(s.Nodes, n)
	}
	return s
}

// wire is the seeding phase shared by NewSystem and Reset: it returns every
// layer to its run-start state, applies cfg's per-run parameters and
// installs cfg.Preheat. On a freshly built System the resets are no-ops
// over empty structures; on a reused one they clear the previous run while
// retaining every grown allocation (event queue storage, map buckets,
// materialized cache sets, histogram buckets, predictor tables).
//
// When cfg.Preheat repeats the warm set already installed, the controllers
// roll back to the checkpoint taken after that install instead of clearing
// and installing again. Everything else is reset as on the clear path.
func (s *System) wire(cfg Config) {
	s.Kernel.Reset()
	s.Net.Reset(network.Config{
		Nodes:         cfg.Nodes,
		BandwidthMBs:  cfg.BandwidthMBs,
		BroadcastCost: cfg.BroadcastCost,
		JitterNs:      cfg.JitterNs,
		JitterSeed:    cfg.Seed,
		Recycle:       !cfg.NoRecycle,
	})
	// The recycle switch is applied before the controllers Reset, so their
	// free lists drain (or not) consistently with the new run's setting.
	s.packets.SetRecycle(!cfg.NoRecycle)
	if s.Watchdog != nil {
		s.Watchdog.Reset(cfg.WatchdogInterval)
	}
	if s.Checker != nil {
		s.Checker.Reset()
	}
	rollback := len(cfg.Preheat) > 0 && slices.Equal(cfg.Preheat, s.preheated)
	if rollback {
		// A controller whose undo log overflowed cannot roll back; then
		// every controller clears, rolled back or not.
		for _, n := range s.Nodes {
			if !n.Cache.Rollback() || !n.Mem.Rollback() {
				rollback = false
				break
			}
		}
	}
	for i, n := range s.Nodes {
		if !rollback {
			n.Cache.Reset()
			n.Mem.Reset()
		}
		if n.Adaptive != nil {
			acfg := cfg.Adaptive
			acfg.Seed = uint16(cfg.Seed>>4) ^ uint16(3*i+1)
			acfg.Switch = cfg.Protocol == BashSwitch
			n.Adaptive.Reset(acfg)
			n.Adaptive.Start(s.Kernel)
		}
		n.Proc = nil
	}
	s.cfg = cfg
	s.trace = nil
	s.traffic.reset()
	s.totalOps = 0
	if rollback {
		s.rollbacks++
		// The checker saw no installs; give it the commits they make.
		if s.Checker != nil {
			for i, a := range cfg.Preheat {
				s.Checker.WriteCommit(network.NodeID(i%cfg.Nodes), a, 0, uint64(i)+1, 0)
			}
		}
		return
	}
	s.preheated = s.preheated[:0]
	if len(cfg.Preheat) == 0 {
		return
	}
	for i, a := range cfg.Preheat {
		s.PreheatOwned(a, network.NodeID(i%cfg.Nodes), uint64(i)+1)
	}
	for _, n := range s.Nodes {
		n.Cache.Checkpoint()
		n.Mem.Checkpoint()
	}
	s.preheated = append(s.preheated, cfg.Preheat...)
}

// Reset re-seeds the System for a new run of a structurally compatible
// configuration — same protocol, node count, cache geometry, retry buffer,
// predictor and checker/watchdog presence — without reallocating any of its
// large structures. Per-run parameters (bandwidth, broadcast cost, seed,
// jitter, adaptive tuning, watchdog interval, warm set, recycling) may
// differ freely. A reset System is indistinguishable from one freshly
// built with the same cfg: it produces byte-identical results, and its
// controllers hold the same line states and values, cache residency and
// LRU order, and home directory entries. An incompatible config is
// reported as an error and leaves the System untouched. Attach a workload
// and Measure as usual afterwards.
//
// What a Reset costs depends on cfg.Preheat. When it equals the warm set
// the previous NewSystem or Reset installed, Reset undoes what the last
// run changed — the line and directory records and the cache sets it
// touched, including any PreheatOwned calls made after that lease — and
// installs nothing. Otherwise, including whenever Preheat is empty, Reset
// clears every record the last run left and installs the new warm set.
func (s *System) Reset(cfg Config) error {
	cfg = cfg.withDefaults()
	if have, want := s.cfg.structuralKey(), cfg.structuralKey(); have != want {
		return fmt.Errorf("core: reset with structurally incompatible config (have %+v, want %+v)", have, want)
	}
	s.wire(cfg)
	return nil
}

// Config returns the (defaulted) system configuration.
func (s *System) Config() Config { return s.cfg }

// HomeOf returns the home node of a block.
func (s *System) HomeOf(a coherence.Addr) network.NodeID {
	return network.NodeID(a % coherence.Addr(s.cfg.Nodes))
}

// PreheatOwned installs a block as Modified in one cache, with consistent
// home state, without generating traffic. Used to warm-start workloads so
// sharing misses dominate from the first access (the paper reaches the same
// state via warm-up runs). Config.Preheat installs the standard warm set
// (block i at node i % Nodes) the same way and lets a pooled lease roll
// back to it; PreheatOwned is for other owners or tokens. Like any change
// a run makes, a call after the warm set's install is undone by the next
// Reset.
func (s *System) PreheatOwned(a coherence.Addr, owner network.NodeID, token uint64) {
	s.Nodes[owner].Cache.Preheat(a, coherence.Modified, token)
	s.Nodes[s.HomeOf(a)].Mem.Preheat(a, owner, 0)
	if s.Checker != nil {
		s.Checker.WriteCommit(owner, a, 0, token, 0)
	}
}

// AttachWorkload gives every node a processor driven by the per-node
// generator returned by gen.
func (s *System) AttachWorkload(gen func(id network.NodeID) Workload) {
	for _, n := range s.Nodes {
		n.Proc = NewProcessor(s, n, gen(n.ID))
	}
}

// Start launches all processors.
func (s *System) Start() {
	for _, n := range s.Nodes {
		if n.Proc != nil {
			n.Proc.Start()
		}
	}
}

// TotalOps returns the number of completed processor operations. It is a
// cached running sum: Measure's RunUntil predicate calls it after every
// event, so summing the per-node counters here would cost O(nodes) per
// simulated event.
func (s *System) TotalOps() uint64 { return s.totalOps }

// StopAll halts the processors (outstanding transactions drain).
func (s *System) StopAll() {
	for _, n := range s.Nodes {
		if n.Proc != nil {
			n.Proc.Stop()
		}
	}
}

// Quiesce stops processors, samplers and the watchdog, then drains every
// in-flight event so the system reaches a stable global state.
func (s *System) Quiesce() {
	s.StopAll()
	for _, n := range s.Nodes {
		if n.Adaptive != nil {
			n.Adaptive.Stop()
		}
	}
	if s.Watchdog != nil {
		s.Watchdog.Stop()
	}
	s.Kernel.Drain()
}

// CacheStats aggregates cache controller stats across nodes.
func (s *System) CacheStats() coherence.CacheStats {
	var agg coherence.CacheStats
	for _, n := range s.Nodes {
		st := n.Cache.Stats()
		agg.Loads += st.Loads
		agg.Stores += st.Stores
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.SharingMisses += st.SharingMisses
		agg.MemoryMisses += st.MemoryMisses
		agg.Upgrades += st.Upgrades
		agg.Writebacks += st.Writebacks
		agg.BroadcastRequests += st.BroadcastRequests
		agg.UnicastRequests += st.UnicastRequests
		agg.Reissues += st.Reissues
		agg.StaleDataDropped += st.StaleDataDropped
		agg.Predicted += st.Predicted
		agg.PredictedHits += st.PredictedHits
		agg.MissLatencySum += st.MissLatencySum
		agg.MissLatencyCount += st.MissLatencyCount
	}
	return agg
}
