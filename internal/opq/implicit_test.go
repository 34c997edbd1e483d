package opq

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
)

// paddedMenu is randomMenu without its 1-cardinality bin, so remainders
// below every block size take the padded path.
func paddedMenu(rng *rand.Rand) core.BinSet {
	for {
		m := randomMenu(rng)
		if m.Len() < 2 {
			continue
		}
		bins := m.Bins()[1:]
		return core.MustBinSet(bins)
	}
}

// explicitTwin returns pr's plan over an explicit arena holding the same
// ids, solved through SolveRuns.
func explicitTwin(t *testing.T, q *Queue, base, n int) *core.PlanRuns {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = base + i
	}
	pr, err := SolveRuns(q, ids)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Arena == nil && n > 0 && len(pr.Runs) > 0 {
		t.Fatal("SolveRuns returned an implicit plan")
	}
	return pr
}

// planBytes renders every observable form of a plan: the JSON plan, the
// NDJSON use stream, and the EachUse sequence.
func planBytes(t *testing.T, pr *core.PlanRuns) string {
	t.Helper()
	p := core.NewRunPlan(pr)
	js, err := json.Marshal(p) // Materialize
	if err != nil {
		t.Fatal(err)
	}
	var nd bytes.Buffer
	if err := p.EncodeUsesNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	var each []core.BinUse
	if err := pr.EachUse(func(card int, tasks []int) error {
		each = append(each, core.BinUse{Cardinality: card, Tasks: append([]int(nil), tasks...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	eb, err := json.Marshal(each)
	if err != nil {
		t.Fatal(err)
	}
	return string(js) + "\n" + nd.String() + "\n" + string(eb)
}

// TestImplicitMatchesExplicit pins the implicit task range as a pure
// representation change: for randomized menus (with and without a
// 1-cardinality bin, so padded remainders occur), thresholds, bases and
// sizes, an implicit plan (SolveRunsRange, BatchPlanner.Solve) renders
// byte-identically to the same plan over an explicit arena through
// EachUse, Materialize and EncodeUsesNDJSON — before and after
// OffsetTasks, merged contiguously and out of order with MergePlanRuns,
// and cloned.
func TestImplicitMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 150; trial++ {
		menu := randomMenu(rng)
		if trial%2 == 1 {
			menu = paddedMenu(rng)
		}
		q, err := Build(menu, 0.5+0.49*rng.Float64())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		L := int(q.Elems[0].LCM)
		n := 1 + rng.Intn(3*L+40)
		base := rng.Intn(5000) - 1000
		imp, err := SolveRunsRange(q, base, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := imp.TaskRange(); !ok {
			t.Fatalf("trial %d: SolveRunsRange returned an explicit plan", trial)
		}
		exp := explicitTwin(t, q, base, n)
		if got, want := planBytes(t, imp), planBytes(t, exp); got != want {
			t.Fatalf("trial %d (n=%d base=%d): implicit plan renders\n%.300s\nexplicit\n%.300s", trial, n, base, got, want)
		}

		bp, err := NewBatchPlanner(q)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := bp.Solve(n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := planBytes(t, shared), planBytes(t, explicitTwin(t, q, 0, n)); got != want {
			t.Fatalf("trial %d: BatchPlanner plan differs from the explicit solve", trial)
		}

		// Offset both forms, then merge with a following part: the
		// contiguous merge stays implicit, and both merges render alike.
		delta := rng.Intn(300)
		imp.OffsetTasks(delta)
		exp.OffsetTasks(delta)
		m := 1 + rng.Intn(2*L+10)
		nextImp, err := SolveRunsRange(q, base+delta+n, m)
		if err != nil {
			t.Fatal(err)
		}
		nextExp := explicitTwin(t, q, base+delta+n, m)
		mi := core.MergePlanRuns(imp, nil, nextImp)
		me := core.MergePlanRuns(exp, nil, nextExp)
		if _, _, ok := mi.TaskRange(); !ok {
			t.Fatalf("trial %d: contiguous implicit merge lost its range", trial)
		}
		if got, want := planBytes(t, mi), planBytes(t, me); got != want {
			t.Fatalf("trial %d: merged implicit plan differs from merged explicit", trial)
		}
		// Out of order: the merge falls back to an arena, same bytes.
		if got, want := planBytes(t, core.MergePlanRuns(nextImp, imp)), planBytes(t, core.MergePlanRuns(nextExp, exp)); got != want {
			t.Fatalf("trial %d: out-of-order merge differs", trial)
		}
		// A materialized implicit plan stays coherent under OffsetTasks.
		c := mi.Clone()
		_ = c.Materialize()
		c.OffsetTasks(-delta)
		ce := me.Clone()
		ce.OffsetTasks(-delta)
		if got, want := planBytes(t, c), planBytes(t, ce); got != want {
			t.Fatalf("trial %d: offset after Materialize differs", trial)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes: the least of
// three measurements, with the collector off, so an allocation the
// runtime makes elsewhere in the process during one of them does not
// land in the count.
func bytesPerRun(runs int, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	best := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return best
}

// TestSolveAllocsFlat pins the cached solve as O(runs): SolveRunsRange
// and BatchPlanner.Solve allocate the same bytes at n=1e3 and n=1e6 —
// no per-task arena.
func TestSolveAllocsFlat(t *testing.T) {
	q, err := Build(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBatchPlanner(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, solve := range map[string]func(n int) error{
		"SolveRunsRange": func(n int) error { _, err := SolveRunsRange(q, 0, n); return err },
		"BatchPlanner":   func(n int) error { _, err := bp.Solve(n); return err },
	} {
		run := func(n int) func() {
			return func() {
				if err := solve(n); err != nil {
					t.Fatal(err)
				}
			}
		}
		if small, large := bytesPerRun(50, run(1e3)), bytesPerRun(50, run(1e6)); small != large {
			t.Errorf("%s allocates %d bytes at n=1e3, %d at n=1e6", name, small, large)
		}
	}
}
