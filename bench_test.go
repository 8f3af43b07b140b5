// Benchmarks, one per paper experiment: BenchmarkE<n> runs every case of
// experiment E<n> of internal/experiments as a sub-benchmark, once per
// corpus scale (`go test -run xxx -bench 'E5/IntegratedView/1k' .`). The
// registry holds each experiment's only definition; cmd/annoda-bench drives
// the same cases. See EXPERIMENTS.md for the mapping to the paper's tables
// and figures.
package main_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
)

func BenchmarkE1(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkE5(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkE9(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkE10(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE19(b *testing.B) { benchExperiment(b, "E19") }
func BenchmarkE20(b *testing.B) { benchExperiment(b, "E20") }

func benchExperiment(b *testing.B, id string) {
	e := experiments.Lookup(id)
	if e == nil {
		b.Fatalf("experiment %s is not registered", id)
	}
	for _, c := range e.Cases {
		b.Run(c.Name, func(b *testing.B) {
			for _, genes := range c.Scales {
				b.Run(experiments.ScaleName(genes), func(b *testing.B) { benchCase(b, c, genes) })
			}
		})
	}
}

func benchCase(b *testing.B, c experiments.Case, genes int) {
	env := experiments.NewEnv(genes, experiments.DefaultSeed)
	defer env.Close()
	op, err := c.Setup(env)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	defer b.StopTimer() // teardown is not part of the measurement
	if !c.Parallel {
		for i := 0; i < b.N; i++ {
			if err := op(i); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	var n atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := op(int(n.Add(1) - 1)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
