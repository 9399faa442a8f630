package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/coherence"
	"repro/internal/sim"
)

// Metrics is the result of one measured run.
type Metrics struct {
	Protocol Protocol
	// Ops is the number of memory operations completed in the measurement
	// window; Elapsed is the window's simulated length.
	Ops     uint64
	Elapsed sim.Time
	// Throughput is ops per nanosecond — the paper's "performance" for the
	// locking microbenchmark (lock acquires per ns) and, with think time
	// standing in for computation, for the macro workloads.
	Throughput float64
	// AvgMissLatency is the mean demand miss latency in ns (Figure 9).
	AvgMissLatency float64
	// Utilization is the mean endpoint inbound-link utilization over the
	// window (Figure 6).
	Utilization float64
	// BroadcastFraction is the fraction of demand requests broadcast.
	BroadcastFraction float64
	// Retries and Nacks count BASH memory-side recovery actions.
	Retries, Nacks uint64
	// BytesPerOp is delivered interconnect bytes per completed operation in
	// the measurement window (the protocols' bandwidth cost).
	BytesPerOp float64
	// ControlBytesPerOp is the 8-byte-message share of BytesPerOp.
	ControlBytesPerOp float64
}

// metricsCellBytes is the size of Metrics' cell-store record: its eleven
// fields as little-endian 64-bit words.
const metricsCellBytes = 11 * 8

// AppendCell appends m's cell-store record to dst: the fields in
// declaration order, integers as their 64-bit two's-complement words and
// floats as math.Float64bits, so every value (NaN payloads and -0
// included) round-trips bit-exactly through DecodeCell. The names are
// deliberately not MarshalBinary/UnmarshalBinary, which gob would adopt
// for the dist plane's Metrics result blobs.
func (m Metrics) AppendCell(dst []byte) ([]byte, error) {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(m.Protocol))
	dst = le.AppendUint64(dst, m.Ops)
	dst = le.AppendUint64(dst, uint64(m.Elapsed))
	dst = le.AppendUint64(dst, math.Float64bits(m.Throughput))
	dst = le.AppendUint64(dst, math.Float64bits(m.AvgMissLatency))
	dst = le.AppendUint64(dst, math.Float64bits(m.Utilization))
	dst = le.AppendUint64(dst, math.Float64bits(m.BroadcastFraction))
	dst = le.AppendUint64(dst, m.Retries)
	dst = le.AppendUint64(dst, m.Nacks)
	dst = le.AppendUint64(dst, math.Float64bits(m.BytesPerOp))
	dst = le.AppendUint64(dst, math.Float64bits(m.ControlBytesPerOp))
	return dst, nil
}

// DecodeCell sets m from a record written by AppendCell. Any length other
// than the record's is an error and leaves m untouched.
func (m *Metrics) DecodeCell(src []byte) error {
	if len(src) != metricsCellBytes {
		return fmt.Errorf("core: metrics record is %d bytes, want %d", len(src), metricsCellBytes)
	}
	le := binary.LittleEndian
	word := func(i int) uint64 { return le.Uint64(src[8*i:]) }
	*m = Metrics{
		Protocol:          Protocol(word(0)),
		Ops:               word(1),
		Elapsed:           sim.Time(word(2)),
		Throughput:        math.Float64frombits(word(3)),
		AvgMissLatency:    math.Float64frombits(word(4)),
		Utilization:       math.Float64frombits(word(5)),
		BroadcastFraction: math.Float64frombits(word(6)),
		Retries:           word(7),
		Nacks:             word(8),
		BytesPerOp:        math.Float64frombits(word(9)),
		ControlBytesPerOp: math.Float64frombits(word(10)),
	}
	return nil
}

// String renders a compact single-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%s: %.6f ops/ns, miss %.0f ns, util %.1f%%, bcast %.0f%%",
		m.Protocol, m.Throughput, m.AvgMissLatency, 100*m.Utilization, 100*m.BroadcastFraction)
}

// snapshot captures the counters that Measure differentiates.
type snapshot struct {
	ops        uint64
	at         sim.Time
	missLatSum sim.Time
	missCount  uint64
	busyIn     float64
	bcast      uint64
	ucast      uint64
	bytes      uint64
	ctrlBytes  uint64
}

func (s *System) snap() snapshot {
	cs := s.CacheStats()
	var busy float64
	for _, n := range s.Nodes {
		busy += s.Net.InChannel(n.ID).BusyNs()
	}
	return snapshot{
		ops:        s.TotalOps(),
		at:         s.Kernel.Now(),
		missLatSum: cs.MissLatencySum,
		missCount:  cs.MissLatencyCount,
		busyIn:     busy,
		bcast:      cs.BroadcastRequests,
		ucast:      cs.UnicastRequests,
		bytes:      s.traffic.TotalBytes(),
		ctrlBytes:  s.traffic.ControlBytes(),
	}
}

// Measure runs the attached workload for warmupOps operations (system-wide),
// then measures for measureOps more, returning window metrics. The warm-up
// brings the caches and the adaptive mechanism to steady state, as the
// paper's methodology does.
func (s *System) Measure(warmupOps, measureOps uint64) Metrics {
	s.Start()
	s.Kernel.RunUntil(func() bool { return s.TotalOps() >= warmupOps })
	before := s.snap()
	s.Kernel.RunUntil(func() bool { return s.TotalOps() >= warmupOps+measureOps })
	after := s.snap()
	s.StopAll()
	if s.Watchdog != nil {
		s.Watchdog.Stop()
	}

	elapsed := after.at - before.at
	m := Metrics{Protocol: s.cfg.Protocol, Ops: after.ops - before.ops, Elapsed: elapsed}
	if elapsed > 0 {
		m.Throughput = float64(m.Ops) / float64(elapsed)
		m.Utilization = (after.busyIn - before.busyIn) / (float64(elapsed) * float64(s.Net.Nodes()))
		if m.Utilization > 1 {
			m.Utilization = 1
		}
	}
	if dc := after.missCount - before.missCount; dc > 0 {
		m.AvgMissLatency = float64(after.missLatSum-before.missLatSum) / float64(dc)
	}
	if dr := (after.bcast - before.bcast) + (after.ucast - before.ucast); dr > 0 {
		m.BroadcastFraction = float64(after.bcast-before.bcast) / float64(dr)
	}
	if m.Ops > 0 {
		m.BytesPerOp = float64(after.bytes-before.bytes) / float64(m.Ops)
		m.ControlBytesPerOp = float64(after.ctrlBytes-before.ctrlBytes) / float64(m.Ops)
	}
	m.Retries, m.Nacks = s.BashRecoveryCounts()
	return m
}

// BashRecoveryCounts totals BASH memory-side retries and nacks (zero for the
// base protocols).
func (s *System) BashRecoveryCounts() (retries, nacks uint64) {
	for _, n := range s.Nodes {
		if bm, ok := n.Mem.(*coherence.BashMem); ok {
			retries += bm.Stats().Retries
			nacks += bm.Stats().Nacks
		}
	}
	return retries, nacks
}
