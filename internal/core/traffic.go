package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/coherence"
	"repro/internal/stats"
)

// TrafficStats counts delivered messages and bytes by protocol message kind
// — the interconnect demand each protocol places per transaction, the raw
// material of the paper's bandwidth argument.
type TrafficStats struct {
	Messages [coherence.NumKinds]uint64
	Bytes    [coherence.NumKinds]uint64
}

// reset clears the per-kind counters for a new run.
func (t *TrafficStats) reset() { *t = TrafficStats{} }

func (t *TrafficStats) record(kind coherence.Kind, bytes int) {
	t.Messages[kind]++
	t.Bytes[kind] += uint64(bytes)
}

// TotalBytes sums all delivered bytes.
func (t *TrafficStats) TotalBytes() uint64 {
	var total uint64
	for _, b := range t.Bytes {
		total += b
	}
	return total
}

// ControlBytes sums bytes of 8-byte control messages.
func (t *TrafficStats) ControlBytes() uint64 {
	return t.TotalBytes() - t.Bytes[coherence.Data] - t.Bytes[coherence.DataWB]
}

// DataBytes sums bytes of data-carrying messages.
func (t *TrafficStats) DataBytes() uint64 {
	return t.Bytes[coherence.Data] + t.Bytes[coherence.DataWB]
}

// String renders a per-kind breakdown, largest first, ties in kind order,
// omitting kinds that carried no messages.
func (t *TrafficStats) String() string {
	var kinds []coherence.Kind
	for k := range coherence.NumKinds {
		if t.Messages[k] > 0 {
			kinds = append(kinds, k)
		}
	}
	sort.SliceStable(kinds, func(i, j int) bool { return t.Bytes[kinds[i]] > t.Bytes[kinds[j]] })
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, "%s: %d msgs, %d B\n", k, t.Messages[k], t.Bytes[k])
	}
	return b.String()
}

// Traffic returns the system's delivered-traffic breakdown.
func (s *System) Traffic() *TrafficStats { return s.traffic }

// LatencyHistogram merges every cache controller's miss-latency histogram.
func (s *System) LatencyHistogram() *stats.Histogram {
	h := stats.NewLatencyHistogram()
	for _, n := range s.Nodes {
		h.Merge(n.Cache.LatencyHistogram())
	}
	return h
}
