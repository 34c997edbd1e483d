package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// sameBits compares floats bit for bit, so +0 and -0 differ.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestHomogeneousMatchesHeterogeneous pins the O(1) homogeneous form to
// the per-task slice form it replaced: NewHomogeneous(b, n, t) must be
// indistinguishable from NewHeterogeneous(b, repeat(t, n)) through every
// accessor, the JSON encoding, and the constructors' errors.
func TestHomogeneousMatchesHeterogeneous(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7} {
		for _, th := range []float64{0, math.Copysign(0, -1), 0.5, 0.95, 0.999999} {
			t.Run(fmt.Sprintf("n=%d/t=%v", n, th), func(t *testing.T) {
				rep := make([]float64, n)
				for i := range rep {
					rep[i] = th
				}
				hom, err := NewHomogeneous(table1(), n, th)
				if err != nil {
					t.Fatal(err)
				}
				het := MustHeterogeneous(table1(), rep)
				if hom.N() != het.N() || hom.Bins().Len() != het.Bins().Len() {
					t.Fatalf("N/Bins differ: %d/%d vs %d/%d", hom.N(), hom.Bins().Len(), het.N(), het.Bins().Len())
				}
				for i := 0; i < n; i++ {
					if !sameBits(hom.Threshold(i), het.Threshold(i)) || !sameBits(hom.Theta(i), het.Theta(i)) {
						t.Fatalf("task %d: threshold/theta %v/%v vs %v/%v",
							i, hom.Threshold(i), hom.Theta(i), het.Threshold(i), het.Theta(i))
					}
				}
				for _, i := range []int{-1, n} {
					if !panics(func() { hom.Threshold(i) }) || !panics(func() { hom.Theta(i) }) {
						t.Fatalf("index %d out of range did not panic", i)
					}
				}
				ht, et := hom.Thresholds(), het.Thresholds()
				if len(ht) != len(et) || (ht == nil) != (et == nil) {
					t.Fatalf("Thresholds() %v vs %v", ht, et)
				}
				for i := range ht {
					if !sameBits(ht[i], et[i]) {
						t.Fatalf("Thresholds()[%d] %v vs %v", i, ht[i], et[i])
					}
				}
				if hom.Homogeneous() != het.Homogeneous() || hom.Relaxed() != het.Relaxed() {
					t.Fatal("Homogeneous/Relaxed differ")
				}
				if !sameBits(hom.MinThreshold(), het.MinThreshold()) || !sameBits(hom.MaxThreshold(), het.MaxThreshold()) {
					t.Fatalf("min/max %v/%v vs %v/%v", hom.MinThreshold(), hom.MaxThreshold(), het.MinThreshold(), het.MaxThreshold())
				}
				if !sameBits(LowerBoundLP(hom), LowerBoundLP(het)) {
					t.Fatal("LowerBoundLP differs")
				}
				hj, err := hom.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				ej, err := het.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(hj, ej) {
					t.Fatalf("MarshalJSON:\n%s\nvs\n%s", hj, ej)
				}
			})
		}
	}

	errOf := func(_ *Instance, err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for _, c := range []struct {
		name string
		bins BinSet
		n    int
		t    float64
	}{
		{"empty menu", BinSet{}, 3, 0.9},
		{"empty menu, no tasks", BinSet{}, 0, 0.9},
		{"t out of range, no tasks", table1(), 0, 1.5},
		{"t out of range", table1(), 3, 1.5},
		{"t negative", table1(), 3, -0.1},
		{"t NaN", table1(), 2, math.NaN()},
	} {
		rep := make([]float64, c.n)
		for i := range rep {
			rep[i] = c.t
		}
		got, want := errOf(NewHomogeneous(c.bins, c.n, c.t)), errOf(NewHeterogeneous(c.bins, rep))
		if got != want {
			t.Errorf("%s: NewHomogeneous error %q, NewHeterogeneous %q", c.name, got, want)
		}
	}
	if got := errOf(NewHomogeneous(table1(), -1, 0.9)); got != "core: negative task count -1" {
		t.Errorf("negative n: error %q", got)
	}
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes.
func bytesPerRun(runs int, f func()) uint64 {
	f() // warm up, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestNewHomogeneousAllocsFlat pins NewHomogeneous as O(1): neither its
// allocation count nor its allocated bytes grow with n.
func TestNewHomogeneousAllocsFlat(t *testing.T) {
	build := func(n int) func() {
		return func() {
			if _, err := NewHomogeneous(table1(), n, 0.95); err != nil {
				t.Fatal(err)
			}
		}
	}
	if small, large := testing.AllocsPerRun(20, build(1e3)), testing.AllocsPerRun(20, build(1e6)); small != large {
		t.Fatalf("NewHomogeneous allocs: %v at n=1e3, %v at n=1e6", small, large)
	}
	if small, large := bytesPerRun(20, build(1e3)), bytesPerRun(20, build(1e6)); large > small+64 {
		t.Fatalf("NewHomogeneous bytes: %d at n=1e3, %d at n=1e6", small, large)
	}
}

// TestValidateAllocsIndependentOfUses pins Plan.Validate's allocation
// count as independent of the plan's use count, for run-backed plans and
// for use lists whose tasks are out of order (the sorted-scratch path).
// Uses hold 16 tasks, past the size a per-use set could keep off the heap.
func TestValidateAllocsIndependentOfUses(t *testing.T) {
	const card = 16
	menu := MustBinSet([]TaskBin{
		{Cardinality: 1, Confidence: 0.90, Cost: 0.10},
		{Cardinality: card, Confidence: 0.80, Cost: 1.00},
	})
	comb := &RunComb{Parts: []RunPart{{Cardinality: card, Count: 2}}, BlockLen: card}
	pad := &RunComb{Parts: []RunPart{{Cardinality: 1, Count: 3}}, BlockLen: 2}
	runPlan := func(blocks int) (*Plan, *Instance) {
		n := card*blocks + 1
		pr := &PlanRuns{Arena: make([]int, n), Runs: []BlockRun{
			{Comb: comb, Blocks: blocks, Off: 0, Len: card * blocks},
			{Comb: pad, Blocks: 0, Off: card * blocks, Len: 1},
		}}
		for i := range pr.Arena {
			pr.Arena[i] = i
		}
		return NewRunPlan(pr), MustHomogeneous(menu, n, 0.95)
	}
	listPlan := func(uses int) (*Plan, *Instance) {
		p := &Plan{}
		for u := 0; u < uses; u++ {
			tasks := make([]int, card)
			for j := range tasks {
				tasks[j] = card*u + card - 1 - j // descending: not the fast path
			}
			p.Uses = append(p.Uses, BinUse{Cardinality: card, Tasks: tasks}, BinUse{Cardinality: card, Tasks: tasks})
		}
		return p, MustHomogeneous(menu, card*uses, 0.95)
	}
	// A collection empties EachUse's scratch pool, and the refill would be
	// counted against whichever run the collector happened to land in.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, build := range map[string]func(int) (*Plan, *Instance){"runs": runPlan, "use list": listPlan} {
		allocs := func(size int) float64 {
			p, in := build(size)
			return testing.AllocsPerRun(10, func() {
				if err := p.Validate(in); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(10), allocs(10000); small != large {
			t.Errorf("%s: Validate allocs %v at 10 blocks, %v at 10000", name, small, large)
		}
	}
}

// TestValidateUseTaskErrors pins Validate's per-use task errors to the
// messages of the per-use set it replaced: the first bad task in task
// order is named, whether it is out of range or a repeat.
func TestValidateUseTaskErrors(t *testing.T) {
	menu := MustBinSet([]TaskBin{
		{Cardinality: 1, Confidence: 0.90, Cost: 0.10},
		{Cardinality: 8, Confidence: 0.80, Cost: 1.00},
	})
	in := MustHomogeneous(menu, 10, 0.5)
	cases := []struct {
		tasks []int
		want  string
	}{
		{[]int{0, 1, 10}, "core: use 1 assigns out-of-range task 10 (n=10)"},
		{[]int{-1, 1}, "core: use 1 assigns out-of-range task -1 (n=10)"},
		{[]int{3, 3, 11}, "core: use 1 assigns task 3 twice"},
		{[]int{5, 2, 11, 5}, "core: use 1 assigns out-of-range task 11 (n=10)"},
		{[]int{5, 2, 5, 11}, "core: use 1 assigns task 5 twice"},
		{[]int{9, 4, 7, 4, 9}, "core: use 1 assigns task 4 twice"},
		{[]int{2, 1, 0}, ""},
	}
	for _, c := range cases {
		p := &Plan{Uses: []BinUse{{Cardinality: 8, Tasks: []int{0}}, {Cardinality: 8, Tasks: c.tasks}}}
		err := p.Validate(in)
		if c.want == "" {
			// Valid use list; the uncovered tasks fail the threshold.
			if err == nil || !strings.Contains(err.Error(), "below threshold") {
				t.Errorf("%v: err %v, want a threshold error", c.tasks, err)
			}
			continue
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("%v: err %v, want %q", c.tasks, err, c.want)
		}
	}
}
