package dist

// Metrics seam: the coordinator's existing atomic counters register as
// read-through instruments on an obs.Registry — the scrape loads the same
// atomics /dist/status reports, so /metrics and the persisted status file
// can never disagree about a shared counter. Registration is optional (the
// one-shot CLI path never calls it) and adds nothing to the lease hot path
// beyond one atomic pointer load for the grant-size histogram.

import "repro/internal/obs"

// grantSizeBuckets covers the useful LeaseBatch range: 1 (the pre-batching
// protocol) through typical fleet batch depths.
var grantSizeBuckets = []float64{1, 2, 4, 8, 16, 32}

// RegisterMetrics registers the coordinator's counters on r under the
// bashsim_ namespace. Call at most once per registry (obs panics on
// duplicates, by design).
func (c *Coordinator) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("bashsim_leases_total", "non-empty lease grants handed to workers", c.leases.Load)
	r.CounterFunc("bashsim_lease_refills_total", "jobs granted piggybacked on result replies", c.refills.Load)
	r.CounterFunc("bashsim_jobs_dispatched_total", "jobs handed out (re-dispatch after an expiry counts again)", c.dispatched.Load)
	r.CounterFunc("bashsim_jobs_completed_total", "jobs that returned a successful result", c.completed.Load)
	r.CounterFunc("bashsim_jobs_failed_total", "jobs that ended in an error or exhausted their lease budget", c.failed.Load)
	r.CounterFunc("bashsim_lease_reassigned_total", "leases that expired and were requeued", c.reassigned.Load)

	r.CounterFunc("bashsim_adverts_total", "cell-store indicator advertisements received", c.exch.adverts.Load)
	r.CounterFunc("bashsim_advert_bytes_total", "on-wire payload bytes of received adverts", c.exch.advertBytes.Load)
	r.CounterFunc("bashsim_fetches_total", "peer cell fetch requests", c.exch.fetches.Load)
	r.CounterFunc("bashsim_fetch_served_total", "fetches answered from the coordinator's own store", c.exch.served.Load)
	r.CounterFunc("bashsim_fetch_relayed_total", "fetches answered by relaying to an advertised holder", c.exch.relayed.Load)
	r.CounterFunc("bashsim_fetch_false_positive_total", "fetches that found nothing anywhere (indicator false positives)", c.exch.fetchMissing.Load)
	r.CounterFunc("bashsim_fetch_direct_total", "worker-reported direct peer-to-peer fetches (bypassed the coordinator)", c.exch.direct.Load)
	r.CounterFunc("bashsim_fetch_fallback_total", "worker-reported relay fetches after a failed direct attempt", c.exch.fallback.Load)

	r.Collect("bashsim_wire_bytes_total", "socket-level bytes through Coordinator.Serve by direction", "counter",
		func(emit func(v float64, labels ...obs.Label)) {
			emit(float64(c.bytesIn.Load()), obs.Label{Name: "direction", Value: "in"})
			emit(float64(c.bytesOut.Load()), obs.Label{Name: "direction", Value: "out"})
		})
	r.Collect("bashsim_wire_frames_total", "binary wire frames across all connections by direction", "counter",
		func(emit func(v float64, labels ...obs.Label)) {
			emit(float64(c.framesIn.Load()), obs.Label{Name: "direction", Value: "in"})
			emit(float64(c.framesOut.Load()), obs.Label{Name: "direction", Value: "out"})
		})

	r.GaugeFunc("bashsim_workers", "workers heard from within the liveness window", func() float64 {
		return float64(c.Workers())
	})
	r.GaugeFunc("bashsim_wire_conns", "live binary wire connections", func() float64 {
		c.wireMu.Lock()
		n := len(c.wireConns)
		c.wireMu.Unlock()
		return float64(n)
	})
	r.Collect("bashsim_wire_conn_bytes_total", "per-connection socket bytes (live connections)", "counter",
		func(emit func(v float64, labels ...obs.Label)) {
			for _, st := range c.liveConnStatuses() {
				w := obs.Label{Name: "worker", Value: st.Worker}
				rm := obs.Label{Name: "remote", Value: st.Remote}
				emit(float64(st.BytesIn), w, rm, obs.Label{Name: "direction", Value: "in"})
				emit(float64(st.BytesOut), w, rm, obs.Label{Name: "direction", Value: "out"})
			}
		})
	r.Collect("bashsim_wire_conn_frames_total", "per-connection wire frames (live connections)", "counter",
		func(emit func(v float64, labels ...obs.Label)) {
			for _, st := range c.liveConnStatuses() {
				w := obs.Label{Name: "worker", Value: st.Worker}
				rm := obs.Label{Name: "remote", Value: st.Remote}
				emit(float64(st.FramesIn), w, rm, obs.Label{Name: "direction", Value: "in"})
				emit(float64(st.FramesOut), w, rm, obs.Label{Name: "direction", Value: "out"})
			}
		})

	c.grantSize.Store(r.Histogram("bashsim_lease_grant_size", "jobs per non-empty grant (leases and refills)", grantSizeBuckets))
}

// liveConnStatuses snapshots the live wire connections for per-connection
// metric emission.
func (c *Coordinator) liveConnStatuses() []WireConnStatus {
	c.wireMu.Lock()
	defer c.wireMu.Unlock()
	out := make([]WireConnStatus, 0, len(c.wireConns))
	for wc := range c.wireConns {
		out = append(out, wc.status())
	}
	return out
}
