package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/opq"

	slade "repro"
)

// solveBench is the machine-readable outcome of the solve phase, written
// as JSON when -solve-json is set so CI can track the hot path's
// allocation trajectory. All measurements solve the same instance shape
// the serve smoke uses (Jelly |B|=20, t=0.9, n=10,000).
type solveBench struct {
	N int `json:"n"`
	// Cold pays Algorithm 2 (queue construction) on every op; Cached
	// solves on a prebuilt queue in compact run form — the serving
	// layer's steady-state hot path.
	ColdNsOp       float64 `json:"cold_ns_op"`
	ColdAllocsOp   int64   `json:"cold_allocs_op"`
	CachedNsOp     float64 `json:"cached_ns_op"`
	CachedAllocsOp int64   `json:"cached_allocs_op"`
	CachedBytesOp  int64   `json:"cached_bytes_op"`
	// Materialize is the cached solve plus the lazy []BinUse expansion a
	// caller pays at the JSON edge — "solve + materialize", the number
	// the regression gate watches.
	MaterializeNsOp     float64 `json:"materialize_ns_op"`
	MaterializeAllocsOp int64   `json:"materialize_allocs_op"`
	// PerUse reproduces the pre-run-representation allocation pattern
	// (one task slice per bin use) on the cached path, as the in-tree
	// baseline the improvement ratio is computed against.
	PerUseNsOp     float64 `json:"per_use_ns_op"`
	PerUseAllocsOp int64   `json:"per_use_allocs_op"`
	// AllocImprovement is PerUseAllocsOp / MaterializeAllocsOp.
	AllocImprovement float64 `json:"alloc_improvement"`
	// AllocBudget echoes the -solve-alloc-budget gate (0 = no gate).
	AllocBudget int64 `json:"alloc_budget"`
	// Sweep is the cached solve at growing n. A solve over an implicit
	// task range allocates the same bytes at any n; the run fails when
	// bytes/op at the largest n exceed those at the smallest.
	Sweep []sweepPoint `json:"sweep"`
}

// sweepPoint is one n of the cached-solve sweep.
type sweepPoint struct {
	N        int     `json:"n"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
}

// sweepNs are the sizes of the cached-solve sweep.
var sweepNs = []int{10_000, 1_000_000, 100_000_000}

// runSolveBench measures the decomposition hot path with the testing
// package's benchmark driver and enforces the allocation budget: the
// cached solve+materialize pipeline failing the committed allocs/op
// budget fails the run (and CI with it).
func runSolveBench(w io.Writer, jsonPath string, allocBudget int64) error {
	const (
		n   = 10_000
		thr = 0.9
	)
	menu, err := slade.JellyMenu(20)
	if err != nil {
		return err
	}
	q, err := opq.Build(menu, thr)
	if err != nil {
		return err
	}

	bench := solveBench{N: n, AllocBudget: allocBudget}
	fmt.Fprintf(w, "solve bench (Jelly |B|=20, t=%.1f, n=%d)\n", thr, n)

	record := func(label string, nsOp *float64, allocsOp *int64, fn func(b *testing.B)) testing.BenchmarkResult {
		res := testing.Benchmark(fn)
		*nsOp = float64(res.NsPerOp())
		*allocsOp = res.AllocsPerOp()
		fmt.Fprintf(w, "  %-28s %10.0f ns/op  %6d allocs/op  %8d B/op\n", label+":", *nsOp, *allocsOp, res.AllocedBytesPerOp())
		return res
	}
	cachedSolve := func(n int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := opq.SolveRunsRange(q, 0, n); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	record("cold (build + solve)", &bench.ColdNsOp, &bench.ColdAllocsOp, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qq, err := opq.Build(menu, thr)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := opq.SolveRunsRange(qq, 0, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	bench.CachedBytesOp = record("cached (runs only)", &bench.CachedNsOp, &bench.CachedAllocsOp, cachedSolve(n)).AllocedBytesPerOp()
	record("cached solve+materialize", &bench.MaterializeNsOp, &bench.MaterializeAllocsOp, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr, err := opq.SolveRunsRange(q, 0, n)
			if err != nil {
				b.Fatal(err)
			}
			if uses := pr.Materialize(); len(uses) == 0 {
				b.Fatal("empty plan")
			}
		}
	})
	record("per-use baseline (pre-PR)", &bench.PerUseNsOp, &bench.PerUseAllocsOp, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr, err := opq.SolveRunsRange(q, 0, n)
			if err != nil {
				b.Fatal(err)
			}
			if uses := perUseExpand(pr); len(uses) == 0 {
				b.Fatal("empty plan")
			}
		}
	})

	for _, sn := range sweepNs {
		pt := sweepPoint{N: sn}
		pt.BytesOp = record(fmt.Sprintf("cached solve n=%.0e", float64(sn)), &pt.NsOp, &pt.AllocsOp, cachedSolve(sn)).AllocedBytesPerOp()
		bench.Sweep = append(bench.Sweep, pt)
	}

	if bench.MaterializeAllocsOp > 0 {
		bench.AllocImprovement = float64(bench.PerUseAllocsOp) / float64(bench.MaterializeAllocsOp)
		fmt.Fprintf(w, "  alloc improvement vs per-use baseline: %.1fx\n", bench.AllocImprovement)
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing solve bench json: %w", err)
		}
		fmt.Fprintf(w, "  bench json written to %s\n", jsonPath)
	}
	if first, last := bench.Sweep[0], bench.Sweep[len(bench.Sweep)-1]; last.BytesOp > first.BytesOp {
		return fmt.Errorf("cached solve allocates %d B/op at n=%d but %d B/op at n=%d — the solve is no longer flat in n",
			last.BytesOp, last.N, first.BytesOp, first.N)
	}
	if allocBudget > 0 && bench.MaterializeAllocsOp > allocBudget {
		return fmt.Errorf("cached solve+materialize costs %d allocs/op, over the committed budget of %d — the zero-allocation pipeline regressed",
			bench.MaterializeAllocsOp, allocBudget)
	}
	fmt.Fprintln(w, "  OK")
	return nil
}

// perUseExpand rebuilds the pre-run-representation plan form: one
// independently allocated task slice per bin use (what the solver and
// every downstream copy used to produce). Kept as the live baseline the
// solve bench measures the compact representation against.
func perUseExpand(pr *core.PlanRuns) []core.BinUse {
	var uses []core.BinUse
	_ = pr.EachUse(func(card int, tasks []int) error {
		uses = append(uses, core.BinUse{Cardinality: card, Tasks: append([]int(nil), tasks...)})
		return nil
	})
	return uses
}
