package semantics

import (
	"fmt"
	"testing"

	"mdmatch/internal/gen"
)

// Kernel benchmarks for the enforcement chase; CI runs them with
// -benchtime=1x as a compile/regression smoke, `go test -bench .` gives
// real numbers. BenchmarkEnforce compares the candidate-driven worklist
// against the quadratic reference on the same dataset.
func BenchmarkEnforce(b *testing.B) {
	for _, k := range []int{30, 90} {
		ds, err := gen.Generate(gen.DefaultConfig(k))
		if err != nil {
			b.Fatal(err)
		}
		sigma := gen.HolderMDs(ds.Ctx)
		d := ds.Pair()
		b.Run(fmt.Sprintf("worklist_K%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Enforce(d, sigma); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fullscan_K%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EnforceFullScan(d, sigma); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
