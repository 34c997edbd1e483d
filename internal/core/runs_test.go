package core

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

// testComb is a two-part recipe over a {2,3}-cardinality menu: block
// length 6, each task twice in 2-bins and once in 3-bins.
func testComb() *RunComb {
	return &RunComb{
		Parts:    []RunPart{{Cardinality: 2, Count: 2}, {Cardinality: 3, Count: 1}},
		BlockLen: 6,
	}
}

func testMenu() BinSet {
	return MustBinSet([]TaskBin{
		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
	})
}

// testRuns builds a two-run plan: 2 full blocks over tasks 0..11 plus a
// padded application over the 4-task remainder 12..15.
func testRuns() *PlanRuns {
	arena := make([]int, 16)
	for i := range arena {
		arena[i] = i
	}
	return &PlanRuns{
		Arena: arena,
		Runs: []BlockRun{
			{Comb: testComb(), Blocks: 2, Off: 0, Len: 12},
			{Comb: testComb(), Blocks: 0, Off: 12, Len: 4},
		},
	}
}

func TestPlanRunsArithmeticMatchesExpansion(t *testing.T) {
	pr := testRuns()
	plan := NewRunPlan(pr)
	legacy := &Plan{Uses: pr.Expand()}

	if got, want := plan.NumUses(), legacy.NumUses(); got != want {
		t.Fatalf("NumUses %d != expanded %d", got, want)
	}
	if got, want := plan.NumAssignments(), legacy.NumAssignments(); got != want {
		t.Fatalf("NumAssignments %d != expanded %d", got, want)
	}
	if !reflect.DeepEqual(plan.Counts(), legacy.Counts()) {
		t.Fatalf("Counts %v != expanded %v", plan.Counts(), legacy.Counts())
	}
	menu := testMenu()
	if got, want := plan.MustCost(menu), legacy.MustCost(menu); got != want {
		t.Fatalf("Cost %v != expanded %v", got, want)
	}
	gotSum, err := plan.Summarize(menu)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := legacy.Summarize(menu)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSum, wantSum) {
		t.Fatalf("Summary %+v != expanded %+v", gotSum, wantSum)
	}
}

func TestPlanRunsCostUnknownCardinality(t *testing.T) {
	pr := testRuns()
	badMenu := MustBinSet([]TaskBin{{Cardinality: 2, Confidence: 0.85, Cost: 0.18}})
	if _, err := NewRunPlan(pr).Cost(badMenu); err == nil {
		t.Fatal("cost against a menu missing cardinality 3 must fail")
	}
}

func TestPlanRunsJSONMatchesLegacy(t *testing.T) {
	pr := testRuns()
	runJSON, err := json.Marshal(NewRunPlan(pr))
	if err != nil {
		t.Fatal(err)
	}
	legacyJSON, err := json.Marshal(&Plan{Uses: pr.Expand()})
	if err != nil {
		t.Fatal(err)
	}
	if string(runJSON) != string(legacyJSON) {
		t.Fatalf("run-backed JSON differs from legacy:\n%s\n%s", runJSON, legacyJSON)
	}
	// Empty plans must keep the historical "uses":null form.
	emptyRun, err := json.Marshal(NewRunPlan(&PlanRuns{}))
	if err != nil {
		t.Fatal(err)
	}
	emptyLegacy, err := json.Marshal(&Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if string(emptyRun) != string(emptyLegacy) {
		t.Fatalf("empty run-backed JSON %s != legacy %s", emptyRun, emptyLegacy)
	}
	// And decode back into a servable legacy plan.
	var back Plan
	if err := json.Unmarshal(runJSON, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumUses() != NewRunPlan(pr).NumUses() {
		t.Fatalf("round-tripped plan has %d uses, want %d", back.NumUses(), NewRunPlan(pr).NumUses())
	}
}

func TestMergePlanRunsIndependence(t *testing.T) {
	a, b := testRuns(), testRuns()
	merged := MergePlanRuns(a, nil, b)
	if got, want := len(merged.Arena), len(a.Arena)+len(b.Arena); got != want {
		t.Fatalf("merged arena %d, want %d", got, want)
	}
	wantUses := append(a.Expand(), b.Expand()...)
	gotUses := merged.Expand()
	if !reflect.DeepEqual(gotUses, wantUses) {
		t.Fatal("merged expansion is not the concatenation of the parts")
	}
	// Mutating the merge must not touch the inputs.
	merged.OffsetTasks(100)
	if a.Arena[0] != 0 || b.Arena[0] != 0 {
		t.Fatal("OffsetTasks on the merge leaked into an input arena")
	}
	for _, u := range merged.Expand() {
		for _, task := range u.Tasks {
			if task < 100 {
				t.Fatalf("task %d missed the offset", task)
			}
		}
	}
}

func TestOffsetTasksKeepsMaterializationCoherent(t *testing.T) {
	pr := testRuns()
	before := NewRunPlan(pr)
	mat := before.Materialized() // materialize BEFORE offsetting
	pr.OffsetTasks(10)
	for i, u := range mat {
		for j, task := range u.Tasks {
			if task != pr.Expand()[i].Tasks[j] {
				t.Fatalf("use %d task %d: cached materialization %d != post-offset expansion %d",
					i, j, task, pr.Expand()[i].Tasks[j])
			}
			if task < 10 {
				t.Fatalf("use %d: cached materialization missed the offset (task %d)", i, task)
			}
		}
	}
}

func TestRunPlanMergeDemotesToLegacy(t *testing.T) {
	run := NewRunPlan(testRuns())
	legacy := &Plan{Uses: []BinUse{{Cardinality: 2, Tasks: []int{100, 101}}}}
	wantUses := run.NumUses() + 1

	merged := MergePlans(run, legacy)
	if merged.Runs() != nil {
		t.Fatal("mixed merge should demote to the legacy form")
	}
	if merged.NumUses() != wantUses {
		t.Fatalf("mixed merge has %d uses, want %d", merged.NumUses(), wantUses)
	}

	runOnly := MergePlans(NewRunPlan(testRuns()), &Plan{}, NewRunPlan(testRuns()))
	if runOnly.Runs() == nil {
		t.Fatal("run-only merge (empty legacy plans skipped) should stay run-backed")
	}
	if got, want := runOnly.NumUses(), 2*run.NumUses(); got != want {
		t.Fatalf("run-only merge has %d uses, want %d", got, want)
	}

	// Merge (the in-place combiner) demotes a run-backed receiver.
	p := NewRunPlan(testRuns())
	p.Merge(legacy)
	if p.Runs() != nil || p.NumUses() != wantUses {
		t.Fatalf("in-place merge: runs=%v uses=%d, want legacy with %d", p.Runs(), p.NumUses(), wantUses)
	}
}

func TestPlanRunsCloneIsDeep(t *testing.T) {
	pr := testRuns()
	cl := pr.Clone()
	cl.OffsetTasks(50)
	if pr.Arena[0] != 0 {
		t.Fatal("clone shares the arena with its source")
	}
	if !reflect.DeepEqual(pr.Clone().Expand(), pr.Expand()) {
		t.Fatal("clone expands differently from its source")
	}
}

func TestMaterializeConcurrent(t *testing.T) {
	pr := testRuns()
	plan := NewRunPlan(pr)
	var wg sync.WaitGroup
	views := make([][]BinUse, 16)
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = plan.Materialized()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(views); i++ {
		if &views[i][0] != &views[0][0] {
			t.Fatal("concurrent Materialized calls produced distinct expansions")
		}
	}
}

// TestMalformedRunsRejected: hand-built run plans with impossible shapes
// must come back as errors from the designated rejection paths (Validate
// via EachUse, and Cost), never as panics deep in the expansion.
func TestMalformedRunsRejected(t *testing.T) {
	menu := testMenu()
	in := MustHomogeneous(menu, 16, 0.95)
	bad := []*PlanRuns{
		{Runs: []BlockRun{{Comb: testComb(), Blocks: 0, Off: 0, Len: 0}}},                                                                                 // empty padded run
		{Runs: []BlockRun{{Comb: nil, Blocks: 1, Off: 0, Len: 6}}},                                                                                        // no comb
		{Arena: make([]int, 4), Runs: []BlockRun{{Comb: testComb(), Blocks: 1, Off: 0, Len: 6}}},                                                          // window past arena
		{Arena: make([]int, 12), Runs: []BlockRun{{Comb: testComb(), Blocks: 2, Off: 0, Len: 6}}},                                                         // len != blocks·L
		{Arena: make([]int, 8), Runs: []BlockRun{{Comb: testComb(), Blocks: 0, Off: 0, Len: 8}}},                                                          // padded ≥ block
		{Arena: make([]int, 6), Runs: []BlockRun{{Comb: &RunComb{Parts: []RunPart{{Cardinality: 4, Count: 1}}, BlockLen: 6}, Blocks: 1, Off: 0, Len: 6}}}, // card ∤ L
	}
	for i, pr := range bad {
		if err := NewRunPlan(pr).Validate(in); err == nil {
			t.Errorf("malformed plan %d passed Validate", i)
		}
		if _, err := NewRunPlan(pr).Cost(menu); err == nil {
			t.Errorf("malformed plan %d passed Cost", i)
		}
	}
}

func TestRunBackedValidateAndMass(t *testing.T) {
	pr := testRuns()
	menu := testMenu()
	in := MustHomogeneous(menu, 16, 0.95)
	plan := NewRunPlan(pr)
	legacy := &Plan{Uses: pr.Expand()}
	gotMass, err := plan.TransformedMass(16, menu)
	if err != nil {
		t.Fatal(err)
	}
	wantMass, err := legacy.TransformedMass(16, menu)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMass, wantMass) {
		t.Fatal("run-backed TransformedMass differs from expanded")
	}
	if err := plan.Validate(in); err != nil {
		// The hand-built test runs may or may not meet the threshold; the
		// check that matters is agreement with the legacy path.
		if lerr := legacy.Validate(in); lerr == nil {
			t.Fatalf("run-backed Validate failed where legacy passed: %v", err)
		}
	} else if lerr := legacy.Validate(in); lerr != nil {
		t.Fatalf("legacy Validate failed where run-backed passed: %v", lerr)
	}
}

// TestAssignmentsWithin: the bounded count agrees with the expansion
// below the limit, stops exactly past it, and does not wrap on counts
// whose product overflows.
func TestAssignmentsWithin(t *testing.T) {
	pr := testRuns()
	want := 0
	for _, u := range pr.Expand() {
		want += len(u.Tasks)
	}
	if got := pr.NumAssignments(); got != want {
		t.Fatalf("NumAssignments = %d, expansion has %d", got, want)
	}
	if got, ok := pr.AssignmentsWithin(want); !ok || got != want {
		t.Fatalf("AssignmentsWithin(%d) = %d, %v", want, got, ok)
	}
	if _, ok := pr.AssignmentsWithin(want - 1); ok {
		t.Fatalf("AssignmentsWithin(%d) passed a plan of %d", want-1, want)
	}
	huge := &PlanRuns{Arena: make([]int, 6), Runs: []BlockRun{
		{Comb: &RunComb{Parts: []RunPart{{Cardinality: 3, Count: 1 << 62}}, BlockLen: 3}, Blocks: 2, Off: 0, Len: 6},
	}}
	if err := huge.Check(); err != nil {
		t.Fatal(err)
	}
	if _, ok := huge.AssignmentsWithin(math.MaxInt); ok {
		t.Fatal("6·2^62 assignments fit in an int")
	}
}
