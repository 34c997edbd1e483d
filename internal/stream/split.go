package stream

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// SplitPlan is the inverse of the MergePlans/OffsetTasks bookkeeping the
// serving layer uses to batch several callers into one block-aligned solve:
// given a merged plan over the concatenated task-id space of len(sizes)
// callers — caller i owns the contiguous global ids
// [sizes[0]+…+sizes[i-1], sizes[0]+…+sizes[i]) — it partitions the uses
// back into one plan per caller, rebased to each caller's local id space
// 0..sizes[i]-1.
//
// Every use must fall entirely inside one caller's range; a use that spans
// two callers (or addresses an id outside the concatenated space) is
// cross-request task leakage and fails the whole split — the batcher keeps
// each caller's tasks in caller-aligned blocks precisely so this never
// happens, and the error is the structural guarantee of that invariant.
// Cost splits exactly: because uses partition without overlap, the per-
// caller costs sum to the merged plan's cost.
//
// SplitPlan takes ownership of merged: task storage is rebased in place
// and reused by the returned plans (no copying), so the merged plan must
// not be read or reused after the call. Callers that need the merged plan
// intact should pass a deep copy (core.MergePlans(merged) makes one).
//
// A run-backed merged plan (the form core.MergePlans produces from
// run-backed parts) splits in run form: runs are attributed to owners
// without expanding a single use. An implicit merged plan splits in
// O(runs) into implicit plans; an explicit arena is rebased in one pass
// and the returned plans share it — the same storage-reuse contract the
// legacy path has always had.
func SplitPlan(merged *core.Plan, sizes []int) ([]*core.Plan, error) {
	if merged == nil {
		return nil, fmt.Errorf("stream: split of a nil plan")
	}
	offsets, total, err := splitOffsets(sizes)
	if err != nil {
		return nil, err
	}
	if pr := merged.Runs(); pr != nil {
		return splitRuns(pr, sizes, offsets, total)
	}

	out := make([]*core.Plan, len(sizes))
	for i := range out {
		out[i] = &core.Plan{}
	}
	// Owner lookup keeps a cursor: merged plans built caller-by-caller (the
	// batcher's, and any MergePlans of per-caller parts) visit owners in
	// non-decreasing order, making the common case O(1) per use; uses in
	// arbitrary order fall back to binary search.
	owner := 0
	for ui := range merged.Uses {
		u := &merged.Uses[ui]
		if len(u.Tasks) == 0 {
			return nil, fmt.Errorf("stream: use %d has no tasks to attribute an owner by", ui)
		}
		first := u.Tasks[0]
		if first < 0 || first >= total {
			return nil, fmt.Errorf("stream: use %d task %d outside the merged space [0,%d)", ui, first, total)
		}
		// The owner is the caller whose range holds the first task; every
		// other task must agree.
		for first >= offsets[owner+1] {
			owner++
		}
		if first < offsets[owner] {
			owner = sort.Search(len(sizes), func(i int) bool { return offsets[i+1] > first })
		}
		lo, hi := offsets[owner], offsets[owner+1]
		for ti, t := range u.Tasks {
			if t < lo || t >= hi {
				return nil, fmt.Errorf("stream: use %d leaks across callers: task %d outside owner %d's range [%d,%d)", ui, t, owner, lo, hi)
			}
			u.Tasks[ti] = t - lo // rebase in place; we own the slice
		}
		out[owner].Uses = append(out[owner].Uses, *u)
	}
	return out, nil
}

// splitOffsets validates the caller sizes and returns the prefix-sum
// offsets (offsets[i] is caller i's first global id) and the total.
func splitOffsets(sizes []int) ([]int, int, error) {
	if len(sizes) == 0 {
		return nil, 0, fmt.Errorf("stream: split needs at least one caller size")
	}
	offsets := make([]int, len(sizes)+1)
	for i, n := range sizes {
		if n < 0 {
			return nil, 0, fmt.Errorf("stream: negative caller size %d at index %d", n, i)
		}
		offsets[i+1] = offsets[i] + n
	}
	return offsets, offsets[len(sizes)], nil
}

// splitRuns is the run-form split: each run's window is attributed to
// the caller owning its first task (a run that spans two callers is
// cross-request leakage and fails, exactly like a spanning use on the
// legacy path). An implicit merged plan (ids base..base+n-1) splits in
// O(runs): each caller whose runs are contiguous gets an implicit plan
// over its own local range. An explicit merged arena is rebased in
// place, and each caller gets an arena covering only its own windows — a
// disjoint subslice of the merged arena when the owner's runs are
// contiguous (the shape core.MergePlans produces; zero copy). Scattered
// windows are copied into a fresh arena, so mutating one output
// (OffsetTasks) can never corrupt a sibling, the same isolation the
// legacy path's disjoint use windows provided.
func splitRuns(merged *core.PlanRuns, sizes, offsets []int, total int) ([]*core.Plan, error) {
	type ownerAcc struct {
		runs []core.BlockRun
		// minOff/nextOff track the owner's windows; contiguous stays true
		// while they form one ascending gap-free region of the arena.
		minOff, nextOff, total int
		contiguous             bool
	}
	parts := make([]ownerAcc, len(sizes))
	for i := range parts {
		parts[i].contiguous = true
	}
	base, _, implicit := merged.TaskRange()
	owner := 0
	for ri := range merged.Runs {
		r := &merged.Runs[ri]
		if r.Len == 0 {
			return nil, fmt.Errorf("stream: run %d has no tasks to attribute an owner by", ri)
		}
		if r.Off < 0 || r.Off+r.Len > merged.NumTasks() {
			return nil, fmt.Errorf("stream: run %d window [%d,%d) outside the arena", ri, r.Off, r.Off+r.Len)
		}
		first := base + r.Off
		if !implicit {
			first = merged.Arena[r.Off]
		}
		if first < 0 || first >= total {
			return nil, fmt.Errorf("stream: run %d task %d outside the merged space [0,%d)", ri, first, total)
		}
		// Cursor walk for the common caller-by-caller order, binary search
		// for arbitrary orders — same strategy as the legacy path.
		for first >= offsets[owner+1] {
			owner++
		}
		if first < offsets[owner] {
			owner = sort.Search(len(sizes), func(i int) bool { return offsets[i+1] > first })
		}
		lo, hi := offsets[owner], offsets[owner+1]
		if implicit {
			// Consecutive ids from first >= lo: hi is the first one out.
			if first+r.Len > hi {
				return nil, fmt.Errorf("stream: run %d leaks across callers: task %d outside owner %d's range [%d,%d)", ri, hi, owner, lo, hi)
			}
		} else {
			window := merged.Arena[r.Off : r.Off+r.Len]
			for wi, t := range window {
				if t < lo || t >= hi {
					return nil, fmt.Errorf("stream: run %d leaks across callers: task %d outside owner %d's range [%d,%d)", ri, t, owner, lo, hi)
				}
				window[wi] = t - lo // rebase in place; we own the storage
			}
		}
		acc := &parts[owner]
		if len(acc.runs) == 0 {
			acc.minOff, acc.nextOff = r.Off, r.Off
		}
		if r.Off != acc.nextOff {
			acc.contiguous = false
		}
		acc.nextOff = r.Off + r.Len
		acc.total += r.Len
		acc.runs = append(acc.runs, *r)
	}

	out := make([]*core.Plan, len(sizes))
	for i := range parts {
		acc := &parts[i]
		pr := &core.PlanRuns{Runs: acc.runs}
		switch {
		case len(acc.runs) == 0:
			// No uses for this caller; empty run-backed plan.
		case acc.contiguous:
			for ri := range pr.Runs {
				pr.Runs[ri].Off -= acc.minOff
			}
			if implicit {
				pr = core.RangePlanRuns(base+acc.minOff-offsets[i], acc.total, pr.Runs)
			} else {
				pr.Arena = merged.Arena[acc.minOff : acc.minOff+acc.total]
			}
		default:
			// Scattered windows: copy them into an owner-private arena.
			arena := make([]int, 0, acc.total)
			for ri := range pr.Runs {
				r := &pr.Runs[ri]
				off := len(arena)
				if implicit {
					for t := base + r.Off; t < base+r.Off+r.Len; t++ {
						arena = append(arena, t-offsets[i])
					}
				} else {
					arena = append(arena, merged.Arena[r.Off:r.Off+r.Len]...)
				}
				r.Off = off
			}
			pr.Arena = arena
		}
		out[i] = core.NewRunPlan(pr)
	}
	return out, nil
}
