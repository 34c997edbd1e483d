package core

import (
	"fmt"
	"math"
	"sync"
)

// This file holds the compact block-run plan representation. Algorithm 3's
// output is extremely regular — a handful of segments, each k identical full
// blocks of one combination, plus at most one padded block — yet the legacy
// Plan form stores it as thousands of independently allocated BinUse slices.
// PlanRuns stores the same plan as run metadata over its task ids — the
// contiguous range base..base+n-1 held as two integers, or an explicit
// task-id arena: cost, use counts and summaries are computed arithmetically
// from the runs, iteration streams uses without materializing them, and the
// legacy []BinUse form is produced once, lazily, only where a caller truly
// needs per-use task lists (JSON encoding, mostly).

// RunPart is one (cardinality, per-task multiplicity) component of a
// RunComb: within one block, every task is assigned Count times to bins of
// the given cardinality.
type RunPart struct {
	// Cardinality is the bin size |β| the part assigns tasks to.
	Cardinality int
	// Count is n_k — how many times each task of the block lands in a bin
	// of this cardinality.
	Count int
}

// RunComb is the block recipe a run applies: the paper's combination
// Comb = {n_k1 × b_k1, ...} reduced to what expansion needs. One full
// application covers exactly BlockLen tasks and uses
// Count·BlockLen/Cardinality bins per part, in Parts order. RunCombs are
// shared read-only across runs and plans; the solver builds one per
// distinct combination it applies.
type RunComb struct {
	// Parts lists the components in ascending menu order. Every part's
	// Cardinality must divide BlockLen.
	Parts []RunPart
	// BlockLen is the combination's natural block size (the LCM of the
	// used cardinalities).
	BlockLen int
}

// UsesPerBlock returns the number of bin uses one block application emits.
func (c *RunComb) UsesPerBlock() int {
	n := 0
	for _, p := range c.Parts {
		n += p.Count * (c.BlockLen / p.Cardinality)
	}
	return n
}

// BlockRun is one run of a plan: Blocks consecutive full applications of
// Comb over Arena[Off : Off+Len] (Len = Blocks·BlockLen), or — when Blocks
// is zero — a single padded application over Len < BlockLen remainder
// tasks (Algorithm 3's over-provisioned final step: the remainder cycles
// to fill the block, duplicate tasks within one bin are dropped, the full
// block cost is paid).
type BlockRun struct {
	// Comb is the applied combination; shared and read-only.
	Comb *RunComb
	// Blocks counts full block applications; 0 marks a padded run.
	Blocks int
	// Off and Len locate the run's task ids in the owning plan's arena.
	Off, Len int
}

// Padded reports whether the run is a padded remainder application.
func (r *BlockRun) Padded() bool { return r.Blocks == 0 }

// check rejects structurally malformed runs (hand-built PlanRuns are
// public API; solver-emitted runs always pass). arenaLen bounds the
// run's window.
func (r *BlockRun) check(arenaLen int) error {
	if r.Comb == nil {
		return fmt.Errorf("core: run has no combination")
	}
	if r.Comb.BlockLen <= 0 {
		return fmt.Errorf("core: run combination has block length %d", r.Comb.BlockLen)
	}
	for _, p := range r.Comb.Parts {
		if p.Cardinality <= 0 || p.Count < 0 || r.Comb.BlockLen%p.Cardinality != 0 {
			return fmt.Errorf("core: run part (cardinality %d, count %d) malformed for block length %d",
				p.Cardinality, p.Count, r.Comb.BlockLen)
		}
	}
	if r.Off < 0 || r.Len < 0 || r.Off > arenaLen || r.Len > arenaLen-r.Off {
		return fmt.Errorf("core: run window [%d,%d) outside the arena (len %d)", r.Off, r.Off+r.Len, arenaLen)
	}
	if r.Padded() {
		if r.Len < 1 || r.Len >= r.Comb.BlockLen {
			return fmt.Errorf("core: padded run covers %d tasks, want 1..%d", r.Len, r.Comb.BlockLen-1)
		}
		return nil
	}
	// Divide rather than multiply: Blocks·BlockLen could wrap around to
	// Len for a hand-built (or decoded) run with a huge block count.
	if r.Blocks < 0 || r.Len%r.Comb.BlockLen != 0 || r.Len/r.Comb.BlockLen != r.Blocks {
		return fmt.Errorf("core: full run of %d blocks of %d tasks covers %d tasks",
			r.Blocks, r.Comb.BlockLen, r.Len)
	}
	return nil
}

// uses returns the number of bin uses the run expands to. A padded run
// emits exactly as many uses as a full block — only task lists shrink.
func (r *BlockRun) uses() int {
	per := r.Comb.UsesPerBlock()
	if r.Padded() {
		return per
	}
	return r.Blocks * per
}

// assignmentsWithin returns the number of (task, bin) pairs the run
// expands to, or false once that number would pass limit. It cannot
// overflow on the huge counts a hand-built or decoded run may carry, as
// long as the run passed check. For a padded run over rem tasks, a use
// of cardinality card holds min(card, rem) distinct tasks: block
// positions are consecutive integers modulo rem, so a window of card
// positions covers min(card, rem) distinct remainder tasks.
func (r *BlockRun) assignmentsWithin(limit int) (int, bool) {
	n := 0
	for _, p := range r.Comb.Parts {
		var a int
		ok := true
		if r.Padded() {
			a, ok = mulWithin(p.Count, r.Comb.BlockLen/p.Cardinality, limit)
			if ok {
				a, ok = mulWithin(a, min(p.Cardinality, r.Len), limit)
			}
		} else {
			a, ok = mulWithin(r.Len, p.Count, limit)
		}
		if !ok || a > limit-n {
			return 0, false
		}
		n += a
	}
	return n, true
}

// mulWithin returns a·b for non-negative a and b, or false when it would
// pass limit.
func mulWithin(a, b, limit int) (int, bool) {
	if b != 0 && a > limit/b {
		return 0, false
	}
	return a * b, true
}

// PlanRuns is a decomposition plan in compact block-run form: run metadata
// over the plan's task ids. It expands to exactly the same bin-use
// sequence the legacy solver emitted — same uses, same order, same task
// ids — which is what keeps every cost computed from it bit-identical to
// the legacy accumulation.
//
// The ids take one of two forms. An implicit plan (RangePlanRuns — what
// the homogeneous solvers emit) addresses the contiguous ids
// base..base+n-1 and stores only (base, n), so solving, cloning,
// offsetting and contiguous merging are O(runs) whatever n is; ids are
// written out only where a caller iterates tasks. An explicit plan
// (Arena set — a heterogeneous partition's or stream's arbitrary ids, or
// a hand-built PlanRuns{Arena, Runs}) holds them in the arena, and runs
// reference windows of it.
//
// A PlanRuns is read-only after construction except for OffsetTasks, which
// requires exclusive ownership. Materialize is safe for concurrent use.
// Arena ids must be distinct (the solvers' precondition, enforced at the
// service boundary): the padded expansion derives within-bin dedup from
// block positions, so a duplicate id in the remainder would occupy two
// slots of one bin — exactly the invalid plan duplicate ids have always
// produced in full blocks. Hand-built plans are validated structurally by
// EachUse/Cost (and Plan.Validate); solver-emitted runs always pass.
type PlanRuns struct {
	// Arena holds every task id of an explicit plan; runs reference
	// contiguous windows of it. Nil for an implicit plan.
	Arena []int
	// Runs is the plan's run sequence, in emission order.
	Runs []BlockRun

	// base and span describe an implicit plan: arena position i stands
	// for task base+i, for i < span. span is 0 for an explicit plan.
	base, span int

	// mat caches the lazily materialized legacy view. Full-block uses
	// alias Arena windows (zero copy) — or, for an implicit plan, windows
	// of mat.ids, its ids written out once; padded uses live in mat.pad.
	// OffsetTasks keeps a done materialization coherent.
	mat struct {
		once sync.Once
		uses []BinUse
		ids  []int
		pad  []int
	}
}

// RangePlanRuns returns the implicit plan whose runs cover the contiguous
// task ids base..base+n-1 (run windows are positions 0..n-1 of that
// range). Nothing of size n is allocated.
func RangePlanRuns(base, n int, runs []BlockRun) *PlanRuns {
	return &PlanRuns{Runs: runs, base: base, span: n}
}

// TaskRange reports the task range of an implicit plan: its ids are
// base..base+n-1. ok is false for an explicit (arena-backed) plan.
func (pr *PlanRuns) TaskRange() (base, n int, ok bool) {
	if pr.Arena != nil || pr.span == 0 {
		return 0, 0, false
	}
	return pr.base, pr.span, true
}

// NumTasks returns the number of task ids the plan covers.
func (pr *PlanRuns) NumTasks() int {
	if pr.Arena != nil {
		return len(pr.Arena)
	}
	return pr.span
}

// ids returns the task ids at positions [off, off+n): a window of the
// arena, or for an implicit plan the consecutive ids written into
// *scratch (grown as needed).
func (pr *PlanRuns) ids(off, n int, scratch *[]int) []int {
	if pr.Arena != nil {
		return pr.Arena[off : off+n]
	}
	if cap(*scratch) < n {
		*scratch = make([]int, n)
	}
	s := (*scratch)[:n]
	for i := range s {
		s[i] = pr.base + off + i
	}
	return s
}

// Check rejects a structurally malformed plan — a run without a
// combination, a malformed part, a window outside the arena, or a block
// count that disagrees with the window — without expanding anything.
// Solver-emitted plans always pass; EachUse, Cost and Plan.Validate make
// the same check run by run.
func (pr *PlanRuns) Check() error {
	n := pr.NumTasks()
	for i := range pr.Runs {
		if err := pr.Runs[i].check(n); err != nil {
			return err
		}
	}
	return nil
}

// NumUses returns the total number of bin uses, computed from run
// metadata without expansion.
func (pr *PlanRuns) NumUses() int {
	n := 0
	for i := range pr.Runs {
		n += pr.Runs[i].uses()
	}
	return n
}

// NumAssignments returns the total number of (task, bin) assignments,
// computed from run metadata without expansion.
func (pr *PlanRuns) NumAssignments() int {
	n, _ := pr.AssignmentsWithin(math.MaxInt)
	return n
}

// AssignmentsWithin returns NumAssignments and true, or false as soon as
// the count would pass limit — without overflowing, however large the
// counts of a checked plan (see Check) are. It bounds the expansion of
// an untrusted plan before anything expands.
func (pr *PlanRuns) AssignmentsWithin(limit int) (int, bool) {
	n := 0
	for i := range pr.Runs {
		a, ok := pr.Runs[i].assignmentsWithin(limit - n)
		if !ok {
			return 0, false
		}
		n += a
	}
	return n, true
}

// Counts returns the number of uses per bin cardinality (the {τ_l} vector
// of Definition 3), computed from run metadata without expansion.
func (pr *PlanRuns) Counts() map[int]int {
	out := make(map[int]int)
	for i := range pr.Runs {
		r := &pr.Runs[i]
		blocks := r.Blocks
		if r.Padded() {
			blocks = 1
		}
		for _, p := range r.Comb.Parts {
			out[p.Cardinality] += blocks * p.Count * (r.Comb.BlockLen / p.Cardinality)
		}
	}
	return out
}

// Cost returns the plan's total incentive cost under the menu. The
// accumulation replicates the expanded plan's use order add for add, so
// the result is bit-identical to the legacy per-use sum — the exact
// cost-parity invariants (sharded == unsharded, batched == solo) compare
// floats with ==, so run-backed plans must not round differently. The
// loop touches only run metadata: no uses are materialized and the menu
// is consulted once per run part, not once per use.
func (pr *PlanRuns) Cost(bins BinSet) (float64, error) {
	total := 0.0
	var costs []float64 // per-part bin costs, resolved once per run
	for i := range pr.Runs {
		r := &pr.Runs[i]
		if err := r.check(pr.NumTasks()); err != nil {
			return 0, err
		}
		blocks := r.Blocks
		if r.Padded() {
			blocks = 1
		}
		costs = costs[:0]
		for _, p := range r.Comb.Parts {
			b, ok := bins.ByCardinality(p.Cardinality)
			if !ok {
				return 0, fmt.Errorf("core: plan uses unknown bin cardinality %d", p.Cardinality)
			}
			costs = append(costs, b.Cost)
		}
		// Block-major, then part order — the expansion's use order exactly.
		for b := 0; b < blocks; b++ {
			for pi, p := range r.Comb.Parts {
				per := p.Count * (r.Comb.BlockLen / p.Cardinality)
				c := costs[pi]
				for u := 0; u < per; u++ {
					total += c
				}
			}
		}
	}
	return total, nil
}

// idScratch pools the buffers EachUse writes task ids into — an implicit
// plan's block ids and a padded use's tasks — so streaming over a plan
// allocates nothing per use.
var idScratch = sync.Pool{
	New: func() any { return &idBufs{use: make([]int, 0, 64)} },
}

// idBufs is one EachUse call's scratch: block holds the ids of the
// current block (or padded remainder) of an implicit plan, use the tasks
// of the current padded use.
type idBufs struct{ block, use []int }

// EachUse streams the plan's bin uses in expansion order without
// materializing them: full-block uses of an explicit plan pass windows of
// the arena (zero copy), an implicit plan's ids and padded uses come from
// pooled scratch. The tasks slice is only valid for the duration of the
// callback and must not be retained or mutated. Iteration stops at the
// first non-nil error, which is returned; a structurally malformed run
// (hand-built plans only) is reported as an error rather than iterated,
// which is what lets Plan.Validate reject such plans cleanly.
func (pr *PlanRuns) EachUse(fn func(cardinality int, tasks []int) error) error {
	buf := idScratch.Get().(*idBufs)
	defer idScratch.Put(buf)
	n := pr.NumTasks()
	for i := range pr.Runs {
		r := &pr.Runs[i]
		if err := r.check(n); err != nil {
			return err
		}
		if r.Padded() {
			if err := r.eachPaddedUse(pr.ids(r.Off, r.Len, &buf.block), &buf.use, fn); err != nil {
				return err
			}
			continue
		}
		L := r.Comb.BlockLen
		for b := 0; b < r.Blocks; b++ {
			block := pr.ids(r.Off+b*L, L, &buf.block)
			for _, p := range r.Comb.Parts {
				card := p.Cardinality
				for rep := 0; rep < p.Count; rep++ {
					for start := 0; start < L; start += card {
						if err := fn(card, block[start:start+card]); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// eachPaddedUse streams one padded application over the remainder tasks
// rem. Block position i holds task rem[i%len(rem)], and a use over
// positions [start, start+card) keeps the first occurrence of each
// distinct task: positions are consecutive integers modulo rem, so the
// distinct tasks are exactly rem[(start+j) % len(rem)] for
// j < min(card, rem) — index arithmetic replaces the per-use dedup map
// the legacy expansion allocated, with byte-identical output (the map
// version also appended tasks in first-occurrence position order).
func (r *BlockRun) eachPaddedUse(rem []int, scratchp *[]int, fn func(cardinality int, tasks []int) error) error {
	L := r.Comb.BlockLen
	for _, p := range r.Comb.Parts {
		card := p.Cardinality
		for rep := 0; rep < p.Count; rep++ {
			for start := 0; start < L; start += card {
				*scratchp = appendPaddedTasks((*scratchp)[:0], rem, start, card)
				if err := fn(card, *scratchp); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// appendPaddedTasks appends the padded use over positions
// [start, start+card) of the remainder rem — its distinct tasks — to dst.
func appendPaddedTasks(dst []int, rem []int, start, card int) []int {
	n := len(rem)
	m := card
	if m > n {
		m = n
	}
	for j := 0; j < m; j++ {
		dst = append(dst, rem[(start+j)%n])
	}
	return dst
}

// Materialize returns the plan's legacy []BinUse view, built on first call
// and cached: one []BinUse for every use, full-block task lists aliasing
// the arena (zero copy; an implicit plan writes its ids out once for
// them to alias) and padded lists in one shared backing array. The
// result is read-only — it shares storage with the arena — and safe for
// concurrent use. Returns nil for an empty plan, matching the legacy
// solver's empty-plan JSON ("uses":null).
func (pr *PlanRuns) Materialize() []BinUse {
	pr.mat.once.Do(func() {
		if err := pr.Check(); err != nil {
			// No error return here; a malformed hand-built plan is a
			// programmer error — fail loudly instead of dividing by zero
			// deep in the expansion. Plan.Validate / EachUse are the
			// error-returning rejection paths.
			panic(err)
		}
		total := pr.NumUses()
		if total == 0 {
			return
		}
		arena := pr.Arena
		if arena == nil {
			pr.mat.ids = pr.ids(0, pr.span, &pr.mat.ids)
			arena = pr.mat.ids
		}
		padLen := 0
		for i := range pr.Runs {
			if pr.Runs[i].Padded() {
				a, _ := pr.Runs[i].assignmentsWithin(math.MaxInt)
				padLen += a
			}
		}
		uses := make([]BinUse, 0, total)
		pad := make([]int, 0, padLen)
		for i := range pr.Runs {
			r := &pr.Runs[i]
			L := r.Comb.BlockLen
			if r.Padded() {
				rem := arena[r.Off : r.Off+r.Len]
				for _, p := range r.Comb.Parts {
					for rep := 0; rep < p.Count; rep++ {
						for start := 0; start < L; start += p.Cardinality {
							from := len(pad)
							pad = appendPaddedTasks(pad, rem, start, p.Cardinality)
							uses = append(uses, BinUse{Cardinality: p.Cardinality, Tasks: pad[from:len(pad):len(pad)]})
						}
					}
				}
				continue
			}
			for b := 0; b < r.Blocks; b++ {
				base := r.Off + b*L
				for _, p := range r.Comb.Parts {
					card := p.Cardinality
					for rep := 0; rep < p.Count; rep++ {
						for start := 0; start < L; start += card {
							uses = append(uses, BinUse{Cardinality: card, Tasks: arena[base+start : base+start+card : base+start+card]})
						}
					}
				}
			}
		}
		pr.mat.uses = uses
		pr.mat.pad = pad
	})
	return pr.mat.uses
}

// Expand returns a freshly allocated legacy []BinUse with fully copied
// task lists — one backing array, no aliasing of the arena — for callers
// that need a mutable legacy plan (Plan.Merge, the compat solver entry).
func (pr *PlanRuns) Expand() []BinUse {
	total := pr.NumUses()
	if total == 0 {
		return nil
	}
	uses := make([]BinUse, 0, total)
	backing := make([]int, 0, pr.NumAssignments())
	err := pr.EachUse(func(card int, tasks []int) error {
		from := len(backing)
		backing = append(backing, tasks...)
		uses = append(uses, BinUse{Cardinality: card, Tasks: backing[from:len(backing):len(backing)]})
		return nil
	})
	if err != nil {
		panic(err) // unreachable: the callback never fails
	}
	return uses
}

// OffsetTasks shifts every task id in the plan by delta: O(1) for an
// implicit plan (its base moves), one pass over the arena of an explicit
// one, instead of the legacy per-use loop. The caller must own the plan
// exclusively: the arena may be shared with a cached materialization
// (kept coherent here) but must not be shared with other live plans.
func (pr *PlanRuns) OffsetTasks(delta int) {
	if delta == 0 {
		return
	}
	if pr.Arena == nil {
		pr.base += delta
	}
	for _, ids := range [][]int{pr.Arena, pr.mat.ids, pr.mat.pad} {
		for i := range ids {
			ids[i] += delta
		}
	}
}

// Clone returns an independent deep copy: fresh run slice (and arena, for
// an explicit plan), the (immutable) combs shared. An implicit plan
// clones in O(runs). The batcher's stamp path uses it to hand each
// same-shape member its own plan.
func (pr *PlanRuns) Clone() *PlanRuns {
	out := &PlanRuns{
		Runs: append([]BlockRun(nil), pr.Runs...),
		base: pr.base,
		span: pr.span,
	}
	if pr.Arena != nil {
		out.Arena = append([]int(nil), pr.Arena...)
	}
	return out
}

// MergePlanRuns concatenates run-backed plans (nil and empty entries
// skipped) into one independent plan, run offsets rebased, so mutating
// the merged plan (e.g. OffsetTasks) never touches the inputs. Implicit
// inputs whose ranges follow one another (each starting where the last
// ended — the shape of block-aligned shards and offset spans) merge into
// one implicit plan in O(runs); any other mix copies every input's ids
// into a single new arena. Cost is additive, and the merged expansion
// order is the inputs' expansion orders in sequence — exactly the legacy
// MergePlans contract, without expanding anything.
func MergePlanRuns(prs ...*PlanRuns) *PlanRuns {
	parts := make([]*PlanRuns, 0, len(prs))
	tasks, runs := 0, 0
	implicit := true
	for _, pr := range prs {
		if pr == nil || len(pr.Runs) == 0 && pr.NumTasks() == 0 {
			continue
		}
		base, _, ok := pr.TaskRange()
		implicit = implicit && ok && (len(parts) == 0 || base == parts[0].base+tasks)
		parts = append(parts, pr)
		tasks += pr.NumTasks()
		runs += len(pr.Runs)
	}
	out := &PlanRuns{Runs: make([]BlockRun, 0, runs)}
	switch {
	case len(parts) == 0:
	case implicit:
		out.base, out.span = parts[0].base, tasks
	default:
		out.Arena = make([]int, 0, tasks)
	}
	pos := 0
	var scratch []int
	for _, pr := range parts {
		for _, r := range pr.Runs {
			r.Off += pos
			out.Runs = append(out.Runs, r)
		}
		if out.Arena != nil {
			out.Arena = append(out.Arena, pr.ids(0, pr.NumTasks(), &scratch)...)
		}
		pos += pr.NumTasks()
	}
	return out
}
