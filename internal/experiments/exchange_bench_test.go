package experiments

// BenchmarkCellFetchVsSimulate, simulate arm: re-simulate one 16-node cell
// from scratch. The fetch arm, which downloads the same published cell as
// a FETCH/CELL frame pair on the wire, lives under the same name in
// internal/dist (it needs that package's transport). The peer cell
// exchange's claim is that fetching is at least an order of magnitude
// cheaper: the CI bench script runs both arms and fails the build if
// fetch*10 > simulate.

import (
	"testing"

	"repro/internal/core"
)

func BenchmarkCellFetchVsSimulate(b *testing.B) {
	o := Options{}
	warm, measure := o.ops()
	rc := runConfig{
		protocol: core.BASH, nodes: 16, bandwidth: 1600,
		seed: 42, warm: warm, measure: measure,
	}

	b.Run("simulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOne(o, rc)
		}
	})
}
