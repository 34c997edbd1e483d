package cluster_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
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
