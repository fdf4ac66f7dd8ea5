package fragmd_test

// Benchmarks regenerating the paper's tables and figures: one
// sub-benchmark per entry of bench.Experiments (DESIGN.md §4). Run with
//
//	go test -bench=Experiments -benchmem
//	go test -bench=Experiments/fig8
//
// Full paper-size configurations: cmd/mbebench -full <experiment>.

import (
	"io"
	"testing"

	"github.com/fragmd/fragmd/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-experiment benchmarks are slow; run without -short")
	}
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := &bench.Config{Quick: true, Out: io.Discard}
				e.Run(cfg)
				if len(cfg.Failures) > 0 {
					b.Fatalf("%s failed: %v", e.Name, cfg.Failures)
				}
			}
		})
	}
}
