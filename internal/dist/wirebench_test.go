package dist

// BenchmarkWireRoundTrip measures the wire on the protocol's hot cycle —
// lease a batch, execute, stream the result, refill — with payloads sized
// like the real sweep's gob cells (~227-byte specs, ~244-byte results,
// near-identical across jobs: exactly the shape the wire's per-connection
// compression context feeds on). The CI bench step archives ns/op and
// coordinator bytes per op.

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/runner"
)

const benchKind = "dist-bench.cell"

func init() {
	runner.RegisterExecutor(benchKind, func(spec []byte) ([]byte, error) {
		// ~244 bytes, mostly constant: a stand-in for a gob-encoded metrics
		// struct, which differs between cells in only a handful of fields.
		out := make([]byte, 244)
		copy(out, "metrics:")
		copy(out[8:], spec[:16])
		return out, nil
	})
}

func benchJobs(n int, tag byte) []runner.Job {
	base := make([]byte, 227)
	for i := range base {
		base[i] = byte('a' + i%23)
	}
	jobs := make([]runner.Job, n)
	for i := range jobs {
		spec := append([]byte(nil), base...)
		binary.BigEndian.PutUint64(spec, uint64(i))
		spec[8] = tag
		jobs[i] = runner.Job{
			Kind:  benchKind,
			Key:   fmt.Sprintf("bench-%c-%d", tag, i),
			Label: fmt.Sprintf("bench job %d", i),
			Spec:  spec,
		}
	}
	return jobs
}

func BenchmarkWireRoundTrip(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 5 * time.Second, LeaseBatch: 4})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatalf("listen: %v", err)
		}
		defer l.Close()
		go coord.Serve(l)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := 0; i < 2; i++ {
			go RunWorker(ctx, WorkerOptions{
				Coordinator: "http://" + l.Addr().String(),
				Name:        fmt.Sprintf("bench-%d", i),
				Poll:        2 * time.Millisecond,
				Kinds:       []string{benchKind},
			})
		}
		// Warm: establish connections (and the compression context) before
		// the timed section.
		if _, err := coord.Run(benchJobs(8, 'w'), runner.Options{}); err != nil {
			b.Fatalf("warm run: %v", err)
		}

		jobs := benchJobs(b.N, 'b')
		before := coord.Stats()
		b.ResetTimer()
		outs, err := coord.Run(jobs, runner.Options{})
		b.StopTimer()
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		if len(outs) != b.N {
			b.Fatalf("got %d results, want %d", len(outs), b.N)
		}
		after := coord.Stats()
		delta := (after.BytesIn + after.BytesOut) - (before.BytesIn + before.BytesOut)
		b.ReportMetric(float64(delta)/float64(b.N), "coordB/op")
	})
}
