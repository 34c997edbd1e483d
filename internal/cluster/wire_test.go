package cluster_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/opq"
	"repro/internal/scenario"
)

// FuzzSpanWire round-trips span plans through the run-form wire: a
// peer's run-backed plan over scenario-shaped menus and thresholds is
// encoded, marshaled, unmarshaled and decoded as the entry node does,
// and must expand to exactly the use sequence of opq.SolveRunsRange,
// with a bit-identical cost, and stay feasible.
func FuzzSpanWire(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1234, -9} {
		f.Add(seed, uint16(seed&0x7fff)*37+1)
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		rng := rand.New(rand.NewSource(seed))
		menu := scenario.GenMenu(rng)
		thr := scenario.GenThreshold(rng)
		n := int(size)%20000 + 1
		q, err := opq.Build(menu, thr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := opq.SolveRunsRange(q, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := cluster.EncodeSpanRuns(core.NewRunPlan(want), n)
		if err != nil {
			t.Fatalf("n=%d: peer cannot encode its own plan: %v", n, err)
		}
		raw, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		var wire []cluster.SpanRun
		if err := json.Unmarshal(raw, &wire); err != nil {
			t.Fatal(err)
		}
		pr, err := cluster.DecodeSpanRuns(wire, n)
		if err != nil {
			t.Fatalf("n=%d: entry rejects a peer's plan: %v", n, err)
		}
		got := core.NewRunPlan(pr)
		if err := got.Validate(core.MustHomogeneous(menu, n, thr)); err != nil {
			t.Fatalf("n=%d: decoded plan infeasible: %v", n, err)
		}
		ref := core.NewRunPlan(want)
		if gu, wu := got.Materialized(), ref.Materialized(); !reflect.DeepEqual(gu, wu) {
			t.Fatalf("n=%d: decoded plan expands to %d uses, the solve to %d", n, len(gu), len(wu))
		}
		gc, wc := got.MustCost(menu), ref.MustCost(menu)
		if math.Float64bits(gc) != math.Float64bits(wc) {
			t.Fatalf("n=%d: decoded cost %v, solved %v", n, gc, wc)
		}
	})
}

// TestDecodeSpanRunsAllocsFlat pins the entry's span decode as O(runs):
// the same wire runs over n=1e3 and n=1e6 tasks allocate the same bytes,
// because the decoded plan holds the identity ids as a range, not an
// arena. The peer side encodes in O(runs) too.
func TestDecodeSpanRunsAllocsFlat(t *testing.T) {
	q, err := opq.Build(core.MustBinSet([]core.TaskBin{
		{Cardinality: 1, Confidence: 0.90, Cost: 0.10},
		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
	}), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	wire := func(n int) []cluster.SpanRun {
		pr, err := opq.SolveRunsRange(q, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := cluster.EncodeSpanRuns(core.NewRunPlan(pr), n)
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	bytesAt := func(n int) uint64 {
		runs := wire(n)
		return bytesPerRun(50, func() {
			if _, err := cluster.DecodeSpanRuns(runs, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := bytesAt(1e3), bytesAt(1e6); small != large {
		t.Fatalf("decodeSpanRuns allocates %d bytes at n=1e3, %d at n=1e6", small, large)
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
