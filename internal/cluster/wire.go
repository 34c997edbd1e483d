package cluster

import (
	"fmt"

	"repro/internal/core"
)

// SpanRunsMediaType is the media type of a span reply in run form. An
// entry node asks for it with Accept on POST /v1/decompose, and a peer
// answers with it as Content-Type. The name is the version: a change to
// the schema that old entries could misread takes a new media type, and
// an entry fails any reply whose Content-Type is not the one it asked
// for.
const SpanRunsMediaType = "application/x-slade-runs+json"

// SpanRun is one run of a span plan on the wire: Blocks applications of
// the combination Parts ([cardinality, count] pairs in menu order) with
// block size BlockLen, over the next Len tasks of the span. Blocks 0
// marks a padded run over Len < BlockLen remainder tasks. Runs carry no
// task ids: they tile the span's identity ids 0..n-1 in order, so a
// reply is O(runs) bytes however many tasks the span holds.
type SpanRun struct {
	Parts    [][2]int `json:"parts"`
	BlockLen int      `json:"block_len"`
	Blocks   int      `json:"blocks"`
	Len      int      `json:"len"`
}

// EncodeSpanRuns returns the plan of an n-task span in wire form. Only an
// implicit run-backed plan over the identity ids 0..n-1 (an O(1) check),
// with runs tiling it in order, has a wire form; any other plan is an
// error (the peer answers 406). A run-backed plan with no runs (every
// task at threshold 0) is the empty run list.
func EncodeSpanRuns(p *core.Plan, n int) ([]SpanRun, error) {
	pr := p.Runs()
	if pr != nil && len(pr.Runs) == 0 {
		return []SpanRun{}, nil
	}
	if pr == nil || pr.NumTasks() != n {
		return nil, fmt.Errorf("cluster: plan is not run-backed over %d tasks", n)
	}
	if base, _, ok := pr.TaskRange(); !ok || base != 0 {
		return nil, fmt.Errorf("cluster: plan is not over the identity ids 0..%d", n-1)
	}
	out := make([]SpanRun, len(pr.Runs))
	pos := 0
	for i := range pr.Runs {
		r := &pr.Runs[i]
		if r.Off != pos {
			return nil, fmt.Errorf("cluster: run %d starts at %d, want %d", i, r.Off, pos)
		}
		parts := make([][2]int, len(r.Comb.Parts))
		for j, part := range r.Comb.Parts {
			parts[j] = [2]int{part.Cardinality, part.Count}
		}
		out[i] = SpanRun{Parts: parts, BlockLen: r.Comb.BlockLen, Blocks: r.Blocks, Len: r.Len}
		pos += r.Len
	}
	if pos != n {
		return nil, fmt.Errorf("cluster: runs cover %d of %d tasks", pos, n)
	}
	return out, nil
}

// decodeSpanRuns rebuilds an n-task span plan from its wire runs as an
// implicit plan over the identity ids 0..n-1, allocating nothing of size
// n. It checks that the runs tile [0, n) exactly, that each is
// structurally sound, and that the plan expands to at most
// maxRemoteBody/2 (task, bin) pairs — all arithmetic on run metadata, so
// a reply of a few bytes cannot make the caller expand without bound. An
// empty run list is the empty plan, as the solver emits at threshold 0.
// Feasibility is the caller's check (core.Plan.Validate), which rejects
// the empty plan at any positive threshold.
func decodeSpanRuns(runs []SpanRun, n int) (*core.PlanRuns, error) {
	if len(runs) == 0 {
		return &core.PlanRuns{}, nil
	}
	pr := core.RangePlanRuns(0, n, make([]core.BlockRun, len(runs)))
	pos := 0
	for i, w := range runs {
		if w.Len < 0 || w.Len > n-pos {
			return nil, fmt.Errorf("cluster: run %d covers %d tasks at %d, past the span's %d", i, w.Len, pos, n)
		}
		parts := make([]core.RunPart, len(w.Parts))
		for j, part := range w.Parts {
			parts[j] = core.RunPart{Cardinality: part[0], Count: part[1]}
		}
		comb := &core.RunComb{Parts: parts, BlockLen: w.BlockLen}
		pr.Runs[i] = core.BlockRun{Comb: comb, Blocks: w.Blocks, Off: pos, Len: w.Len}
		pos += w.Len
	}
	if pos != n {
		return nil, fmt.Errorf("cluster: runs cover %d of the span's %d tasks", pos, n)
	}
	if err := pr.Check(); err != nil {
		return nil, err
	}
	if _, ok := pr.AssignmentsWithin(maxRemoteBody / 2); !ok {
		return nil, fmt.Errorf("cluster: plan expands to more than %d assignments", maxRemoteBody/2)
	}
	return pr, nil
}
