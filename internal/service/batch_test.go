package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
	"repro/internal/store"
	"repro/internal/stream"
)

// unbatchedCost is the reference every batched request must match: the
// one-shot OPQ-Based cost of solving the instance alone.
func unbatchedCost(t *testing.T, in *core.Instance) float64 {
	t.Helper()
	ref, err := (opq.Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	return ref.MustCost(in.Bins())
}

// holdBuilds swaps in a cache whose queue builds block until release is
// called. A request on a cold key then keeps its flush in flight, so the
// requests that follow it on that key queue up as the flush's followers —
// the only traffic the batcher coalesces. started receives one value per
// build begun; release is idempotent. Callers defer release after
// deferring the service's Close, so a failing test releases the held
// flushes before Close waits for them.
func holdBuilds(t *testing.T, svc *Service) (started <-chan struct{}, release func()) {
	t.Helper()
	gate := make(chan struct{})
	begun := make(chan struct{}, 64)
	svc.cache = NewOPQCacheWithBuilder(DefaultCacheSize, func(bins core.BinSet, th float64) (*opq.Queue, error) {
		begun <- struct{}{}
		<-gate
		return opq.Build(bins, th)
	})
	svc.sharded.Cache = svc.cache
	var once sync.Once
	return begun, func() { once.Do(func() { close(gate) }) }
}

// waitBuild waits for the next held queue build to begin.
func waitBuild(t *testing.T, started <-chan struct{}) {
	t.Helper()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no queue build began")
	}
}

// waitBatcher polls the batcher's state under its lock until cond holds.
func waitBatcher(t *testing.T, svc *Service, what string, cond func(b *batcher) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		svc.batcher.mu.Lock()
		ok := cond(svc.batcher)
		svc.batcher.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batcher never reached: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// pendingMembers counts the members parked in pending batches. Caller
// holds b.mu.
func pendingMembers(b *batcher) int {
	n := 0
	for _, pb := range b.pending {
		n += len(pb.members)
	}
	return n
}

// TestBatchCostParityInvariant is the batcher's acceptance invariant:
// requests of mixed sizes coalesced into one shared block-aligned solve
// each receive a feasible plan whose cost equals the unbatched solve of
// the same instance exactly — not within tolerance, exactly. The batch
// is made deterministic by entering every member in one step
// (DecomposeBatch) with the cap sized to the request count, so the final
// member flushes it at the cap.
func TestBatchCostParityInvariant(t *testing.T) {
	menu := binset.Table1()
	const thr = 0.95
	sizes := []int{37, 37, 200, 5, 200, 37, 1, 64}

	svc := New(Config{
		Workers:          4,
		BatchWindow:      time.Minute, // cap, not timer, must flush
		BatchMaxRequests: len(sizes),
	})
	defer svc.Close()

	type result struct {
		plan *core.Plan
		sum  PlanSummary
	}
	ins := make([]*core.Instance, len(sizes))
	for i, n := range sizes {
		ins[i] = core.MustHomogeneous(menu, n, thr)
	}
	plans, sums, err := svc.DecomposeBatch(context.Background(), DefaultSolverName, ins)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]result, len(sizes))
	for i := range sizes {
		results[i] = result{plans[i], sums[i]}
	}

	for i, n := range sizes {
		r := results[i]
		in := core.MustHomogeneous(menu, n, thr)
		if err := r.plan.Validate(in); err != nil {
			t.Fatalf("request %d: invalid plan: %v", i, err)
		}
		want := unbatchedCost(t, in)
		if got := r.plan.MustCost(menu); got != want {
			t.Errorf("request %d (n=%d): batched cost %v != unbatched %v", i, n, got, want)
		}
		if r.sum.Cost != want || r.sum.NumUses != r.plan.NumUses() {
			t.Errorf("request %d: shared summary %+v disagrees with plan (cost %v, uses %d)",
				i, r.sum, want, r.plan.NumUses())
		}
	}

	// The batcher emits per-caller plans directly (the fused form of the
	// merged-plan bookkeeping); pin the equivalence by re-materializing
	// the merged plan of the summed instance and asserting
	// stream.SplitPlan inverts it back to plans with identical costs.
	offset := 0
	var parts []*core.Plan
	for i, n := range sizes {
		part := core.MergePlans(results[i].plan) // deep copy
		part.OffsetTasks(offset)
		parts = append(parts, part)
		offset += n
	}
	merged := core.MergePlans(parts...)
	split, err := stream.SplitPlan(merged, sizes)
	if err != nil {
		t.Fatalf("SplitPlan on the re-materialized merged plan: %v", err)
	}
	for i := range sizes {
		if got, want := split[i].MustCost(menu), results[i].plan.MustCost(menu); got != want {
			t.Errorf("request %d: SplitPlan cost %v != delivered %v", i, got, want)
		}
		if split[i].NumUses() != results[i].plan.NumUses() {
			t.Errorf("request %d: SplitPlan uses %d != delivered %d", i, split[i].NumUses(), results[i].plan.NumUses())
		}
	}

	st := svc.Stats()
	if st.Batch.Batches != 1 || st.Batch.BatchedRequests != uint64(len(sizes)) {
		t.Errorf("batch stats %+v, want 1 batch of %d", st.Batch, len(sizes))
	}
	if st.Batch.WindowTimeouts != 0 {
		t.Errorf("cap-flushed batch counted %d window timeouts", st.Batch.WindowTimeouts)
	}
	if got := svc.metrics.batchFlushes[flushReasonCap].Value(); got != 1 {
		t.Errorf("%d cap flushes, want 1", got)
	}
	if st.Batch.MeanSize != float64(len(sizes)) {
		t.Errorf("batch mean size %v, want %d", st.Batch.MeanSize, len(sizes))
	}
	if st.Cache.Builds != 1 {
		t.Errorf("one key should build one queue, got %d", st.Cache.Builds)
	}
}

// TestBatchWindowTimeoutFlush covers the window timer: a follower that
// queues behind its key's in-flight flush is flushed by the window when
// that flush outlasts it, and still gets its exact unbatched plan.
func TestBatchWindowTimeoutFlush(t *testing.T) {
	svc := New(Config{BatchWindow: 20 * time.Millisecond, Workers: 2})
	defer svc.Close()
	started, release := holdBuilds(t, svc)
	defer release()
	in := core.MustHomogeneous(binset.Table1(), 10, 0.95)

	errs := make([]error, 2)
	plans := make([]*core.Plan, 2)
	var wg sync.WaitGroup
	decompose := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i], errs[i] = svc.Decompose(context.Background(), in)
		}()
	}
	decompose(0) // the leader: its idle flush holds in the build
	waitBuild(t, started)
	decompose(1) // the follower: pending behind the leader's flush
	waitBatcher(t, svc, "the window flushing the follower", func(b *batcher) bool { return b.windowTimeouts == 1 })
	release()
	wg.Wait()

	want := unbatchedCost(t, in)
	for i := range plans {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got := plans[i].MustCost(in.Bins()); got != want {
			t.Errorf("request %d: cost %v != unbatched %v", i, got, want)
		}
	}
	st := svc.Stats().Batch
	if st.Batches != 2 || st.BatchedRequests != 2 || st.WindowTimeouts != 1 {
		t.Errorf("batch stats %+v, want an idle flush and one timed-out batch of one", st)
	}
	if st.MeanSize != 1 {
		t.Errorf("mean size %v, want 1", st.MeanSize)
	}
}

// TestBatchIdleKeyFlushesAtOnce pins the idle rule: a lone request on a
// key with no flush in flight flushes immediately — with a one-minute
// window it still returns within seconds — and carries exactly the plan
// its unbatched solve produces.
func TestBatchIdleKeyFlushesAtOnce(t *testing.T) {
	svc := New(Config{BatchWindow: time.Minute, Workers: 2})
	defer svc.Close()
	in := core.MustHomogeneous(binset.Table1(), 1003, 0.95)

	done := make(chan struct{})
	var plan *core.Plan
	var err error
	go func() {
		defer close(done)
		plan, err = svc.Decompose(context.Background(), in)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a lone request on an idle key waited for the window")
	}
	if err != nil {
		t.Fatal(err)
	}
	ref, err := (opq.Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(plan)
	want, _ := json.Marshal(ref)
	if !bytes.Equal(got, want) {
		t.Errorf("batched plan differs from the unbatched solve:\n got %.200s\nwant %.200s", got, want)
	}
	for _, reason := range batchFlushReasons {
		want := uint64(0)
		if reason == flushReasonIdle {
			want = 1
		}
		if got := svc.metrics.batchFlushes[reason].Value(); got != want {
			t.Errorf("flushes{reason=%q} = %d, want %d", reason, got, want)
		}
	}
	if st := svc.Stats().Batch; st.Batches != 1 || st.BatchedRequests != 1 || st.WindowTimeouts != 0 {
		t.Errorf("batch stats %+v, want one idle batch of one", st)
	}
}

// TestBatchEndpointOneFlush: a 32-member POST /v1/decompose/batch on an
// idle key enters the batcher in one step and is served by exactly one
// flush of 32, with every member priced like its solo solve.
func TestBatchEndpointOneFlush(t *testing.T) {
	svc := New(Config{BatchWindow: time.Minute, Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	const members = 32
	menu := binset.Table1()
	var body bytes.Buffer
	body.WriteString(`{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1},{"cardinality":2,"confidence":0.85,"cost":0.18},{"cardinality":3,"confidence":0.8,"cost":0.24}],"instances":[`)
	for i := 0; i < members; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"n":%d,"threshold":0.95}`, 1000+i)
	}
	body.WriteString(`]}`)
	client := &http.Client{Timeout: 10 * time.Second} // far below the window
	resp, err := client.Post(srv.URL+"/v1/decompose/batch", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out batchDecomposeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if want := unbatchedCost(t, core.MustHomogeneous(menu, 1000+i, 0.95)); r.Summary.Cost != want {
			t.Errorf("member %d: cost %v != unbatched %v", i, r.Summary.Cost, want)
		}
	}
	st := svc.Stats().Batch
	if st.Batches != 1 || st.BatchedRequests != members {
		t.Errorf("batch stats %+v, want one flush of %d", st, members)
	}
	if got := svc.metrics.batchFlushes[flushReasonIdle].Value(); got != 1 {
		t.Errorf("%d idle flushes, want 1", got)
	}
}

// TestBatchDrainHandoffFlushesWithoutWindow pins the double-buffering
// rule: a batch that forms while the key's previous flush is solving is
// flushed the moment that flush completes — it never waits out the
// window. The window here is a full minute, so only the handoff can
// finish the test in time.
func TestBatchDrainHandoffFlushesWithoutWindow(t *testing.T) {
	menu := binset.Table1()
	in := core.MustHomogeneous(menu, 500, 0.95)
	svc := New(Config{Workers: 2, BatchWindow: time.Minute, BatchMaxRequests: 2})
	defer svc.Close()
	// The run-form solve is too fast to outlast even µs-scale joins, so
	// slow the first flush down deterministically instead: its cold
	// cache.Get pays this injected build delay, guaranteeing the third
	// member joins the successor batch while the first flush is still in
	// flight.
	svc.cache = NewOPQCacheWithBuilder(DefaultCacheSize, func(bins core.BinSet, th float64) (*opq.Queue, error) {
		time.Sleep(300 * time.Millisecond)
		return opq.Build(bins, th)
	})
	svc.sharded.Cache = svc.cache

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Decompose(context.Background(), in)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("third member waited for the window; drain handoff did not fire")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := svc.Stats().Batch
	if st.Batches != 2 || st.BatchedRequests != 3 {
		t.Errorf("batch stats %+v, want 2 batches serving 3 requests", st)
	}
	if st.WindowTimeouts != 0 {
		t.Errorf("handoff-flushed batches counted %d window timeouts", st.WindowTimeouts)
	}
}

// TestBatchMemberCancelLeavesSiblings pins the DELETE-one-member
// semantics at the batcher level: a caller canceled while the batch is
// pending gets ctx.Err() promptly, and its siblings still receive exact
// plans from the shared solve. The batch stays pending behind a leader
// whose flush holds in its queue build.
func TestBatchMemberCancelLeavesSiblings(t *testing.T) {
	menu := binset.Table1()
	svc := New(Config{Workers: 2, BatchWindow: time.Minute, BatchMaxRequests: 64})
	defer svc.Close()
	started, release := holdBuilds(t, svc)
	defer release()

	in := core.MustHomogeneous(menu, 30, 0.95)
	ctx, cancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	errs := make([]error, 4)
	costs := make([]float64, 4)
	canceledDone := make(chan struct{})
	decompose := func(i int, reqCtx context.Context) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 {
				defer close(canceledDone)
			}
			plan, err := svc.Decompose(reqCtx, in)
			errs[i] = err
			if err == nil {
				costs[i] = plan.MustCost(menu)
			}
		}()
	}
	decompose(3, context.Background()) // the leader
	waitBuild(t, started)
	for i := 0; i < 3; i++ {
		reqCtx := context.Background()
		if i == 0 {
			reqCtx = ctx
		}
		decompose(i, reqCtx)
	}
	waitBatcher(t, svc, "three pending followers", func(b *batcher) bool { return pendingMembers(b) == 3 })
	cancel()
	select {
	case <-canceledDone: // promptly: the leader's flush is still held
	case <-time.After(10 * time.Second):
		t.Fatal("canceled member did not return while its batch was pending")
	}
	release()
	wg.Wait()

	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("canceled member returned %v, want context.Canceled", errs[0])
	}
	want := unbatchedCost(t, in)
	for i := 1; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("sibling %d failed: %v", i, errs[i])
		}
		if costs[i] != want {
			t.Errorf("sibling %d cost %v != unbatched %v", i, costs[i], want)
		}
	}
	if st := svc.Stats().Batch; st.Batches != 2 || st.BatchedRequests != 3 {
		t.Errorf("batch stats %+v, want the leader plus a batch of 2 (the canceled member left)", st)
	}
}

// TestBatchBypassesIneligibleRequests: heterogeneous instances, named
// non-default solvers, empty instances, and a re-registered "sharded"
// all route around the batcher.
func TestBatchBypassesIneligibleRequests(t *testing.T) {
	menu := binset.Table1()
	svc := New(Config{Workers: 2, BatchWindow: 50 * time.Millisecond})
	defer svc.Close()
	ctx := context.Background()

	het := core.MustHeterogeneous(menu, []float64{0.9, 0.95, 0.8})
	if _, err := svc.Decompose(ctx, het); err != nil {
		t.Fatalf("heterogeneous: %v", err)
	}
	hom := core.MustHomogeneous(menu, 9, 0.95)
	if _, err := svc.DecomposeWith(ctx, "greedy", hom); err != nil {
		t.Fatalf("greedy: %v", err)
	}
	empty := core.MustHomogeneous(menu, 0, 0.95)
	if _, err := svc.Decompose(ctx, empty); err != nil {
		t.Fatalf("empty: %v", err)
	}
	if st := svc.Stats().Batch; st.Batches != 0 || st.BatchedRequests != 0 {
		t.Errorf("ineligible requests were batched: %+v", st)
	}
	if st := svc.Stats().Batch; !st.Enabled {
		t.Error("batching configured but reported disabled")
	}

	// A replacement under the default name must win over the batcher.
	if err := svc.RegisterSolver(DefaultSolverName, countingSolver{calls: new(int)}); err != nil {
		t.Fatal(err)
	}
	cs, _ := svc.solver(DefaultSolverName)
	if _, err := svc.Decompose(ctx, hom); err != nil {
		t.Fatalf("re-registered solver: %v", err)
	}
	if got := *cs.(countingSolver).calls; got != 1 {
		t.Errorf("re-registered solver called %d times, want 1", got)
	}
}

// countingSolver counts Solve calls; used to prove routing.
type countingSolver struct{ calls *int }

func (c countingSolver) Name() string { return "counting" }
func (c countingSolver) Solve(in *core.Instance) (*core.Plan, error) {
	*c.calls++
	return (opq.Solver{}).Solve(in)
}

// TestBatchStatsDisabled: a batch-less service reports Enabled=false.
func TestBatchStatsDisabled(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	if st := svc.Stats().Batch; st.Enabled || st.Batches != 0 {
		t.Errorf("unexpected batch stats on a batch-less service: %+v", st)
	}
}

// TestBatchedJobsPersistAndReplayIndividually: solve jobs that were
// coalesced into one shared solve still settle, spill to the store, and
// replay after a restart as individual jobs with their own plans.
func TestBatchedJobsPersistAndReplayIndividually(t *testing.T) {
	menu := binset.Table1()
	st := store.NewMem()
	svc := New(Config{
		Workers: 4, MaxJobs: 4, Store: st,
		BatchWindow: 20 * time.Millisecond, BatchMaxRequests: 4,
	})

	sizes := []int{12, 30, 12, 7}
	ids := make([]string, len(sizes))
	for i, n := range sizes {
		in := core.MustHomogeneous(menu, n, 0.95)
		id, err := svc.Jobs().Submit(JobRequest{Instance: in})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if got := waitTerminal(t, svc, id); got.State != JobDone {
			t.Fatalf("job %s settled %s (%s)", id, got.State, got.Error)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	revived := New(Config{Store: st})
	defer revived.Close()
	if rec := revived.Stats().Jobs.Recovered; rec != uint64(len(sizes)) {
		t.Fatalf("recovered %d jobs, want %d", rec, len(sizes))
	}
	for i, id := range ids {
		in := core.MustHomogeneous(menu, sizes[i], 0.95)
		plan, err := revived.Jobs().Result(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if err := plan.Validate(in); err != nil {
			t.Fatalf("job %s: replayed plan invalid: %v", id, err)
		}
		if got, want := plan.MustCost(menu), unbatchedCost(t, in); got != want {
			t.Errorf("job %s: replayed cost %v != unbatched %v", id, got, want)
		}
	}
}

// TestBatchJobDeleteRemovesMemberOnly: canceling one batched solve job
// while its batch is pending removes it from the batch without
// cancelling its siblings — the composition with DELETE
// /v1/jobs/{id}. The batch stays pending behind a leader job whose
// flush holds in its queue build.
func TestBatchJobDeleteRemovesMemberOnly(t *testing.T) {
	menu := binset.Table1()
	svc := New(Config{
		Workers: 4, MaxJobs: 4,
		BatchWindow: time.Minute, BatchMaxRequests: 64,
	})
	defer svc.Close()
	started, release := holdBuilds(t, svc)
	defer release()

	in := core.MustHomogeneous(menu, 21, 0.95)
	submit := func() string {
		id, err := svc.Jobs().Submit(JobRequest{Instance: in})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	leader := submit()
	waitBuild(t, started)
	ids := make([]string, 3)
	for i := range ids {
		ids[i] = submit()
	}
	// Every follower job is parked in the pending batch; delete one.
	waitBatcher(t, svc, "three pending follower jobs", func(b *batcher) bool { return pendingMembers(b) == len(ids) })
	if err := svc.Jobs().Cancel(ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, svc, ids[0]); got.State != JobCanceled {
		t.Fatalf("deleted job settled %s, want canceled", got.State)
	}
	release()

	want := unbatchedCost(t, in)
	for _, id := range append(ids[1:], leader) {
		if got := waitTerminal(t, svc, id); got.State != JobDone {
			t.Fatalf("sibling %s settled %s (%s)", id, got.State, got.Error)
		}
		plan, err := svc.Jobs().Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.MustCost(menu); got != want {
			t.Errorf("sibling %s cost %v != unbatched %v", id, got, want)
		}
	}
	if st := svc.Stats().Batch; st.Batches != 2 || st.BatchedRequests != 3 {
		t.Errorf("batch stats %+v, want the leader plus a batch of 2 (the deleted job left)", st)
	}
}
