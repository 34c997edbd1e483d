package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/opq"
	"repro/internal/service"
)

// kind is the wire shape of one generated request.
type kind int

const (
	kindDecompose kind = iota // POST /v1/decompose, JSON summary reply
	kindNDJSON                // POST /v1/decompose with include_plan, NDJSON reply
	kindBatch                 // POST /v1/decompose/batch
	kindRun                   // POST /v1/jobs kind "run", then SSE, then status
)

// request is one pre-encoded request of a workload's seeded sequence,
// with the reply it must produce.
type request struct {
	kind kind
	path string
	body []byte
	want expect
	// menu, threshold and n describe the instance for the reference
	// solve and for the opq and encode probes of the traced run. A batch
	// lists its members' sizes; a heterogeneous instance (threshold 0)
	// lists its per-task thresholds.
	menu       int
	threshold  float64
	n          int
	sizes      []int
	thresholds []float64
}

// expect is the reference answer a reply is checked against.
type expect struct {
	// cost, uses and assignments are the single-node reference summary
	// of a decompose; members holds each batch member's reference cost.
	cost        float64
	uses        int
	assignments int
	members     []float64
	// solver, when set, is the solver the reply must name.
	solver string
	// tasks is a run job's task count: the report must cover all of them.
	tasks int
}

// menuSpec names one of the benchmark's six menus.
type menuSpec struct {
	model   string
	maxCard int
}

// menus are Jelly and SMIC truncated at |B| ∈ {8, 12, 20}.
var menus = []menuSpec{
	{"jelly", 8}, {"jelly", 12}, {"jelly", 20},
	{"smic", 8}, {"smic", 12}, {"smic", 20},
}

// hotThresholds are the thresholds of the 18 always-cached keys.
var hotThresholds = []float64{0.8, 0.9, 0.95}

// loadedMenu is a menu with its pre-rendered JSON bins array.
type loadedMenu struct {
	bins core.BinSet
	json string
}

func loadMenus() ([]loadedMenu, error) {
	out := make([]loadedMenu, len(menus))
	for i, m := range menus {
		var (
			bs  core.BinSet
			err error
		)
		if m.model == "jelly" {
			bs, err = binset.Jelly(m.maxCard)
		} else {
			bs, err = binset.SMIC(m.maxCard)
		}
		if err != nil {
			return nil, fmt.Errorf("menu %s%d: %w", m.model, m.maxCard, err)
		}
		data, err := json.Marshal(bs.Bins())
		if err != nil {
			return nil, err
		}
		out[i] = loadedMenu{bins: bs, json: string(data)}
	}
	return out, nil
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// size is the length of the seeded request sequence; clients cycle
	// through it for as long as the run measures.
	size int
	// warm is the length of the warm-up sequence the set-up replays
	// before timing starts. It is drawn from warmSeed, whatever the run's
	// seed, so set-up does the same work on every run.
	warm int
	gen  func(g *generator, size int) []request
}

var workloads = []workload{
	{
		name: "decompose-hot",
		why:  "18 always-cached keys: HTTP codec, batcher coalescing, shard solve and plan encoding with no builds",
		size: 1024,
		warm: 32,
		gen:  (*generator).hot,
	},
	{
		name: "menu-churn",
		why:  "small solo decomposes over ~1000 keys, 8x the cache: misses, opq.Build and evictions, the batch window as pure wait",
		size: 4096,
		warm: 256,
		gen:  (*generator).churn,
	},
	{
		name: "run-jobs",
		why:  "remote run jobs followed over SSE: jobs, executor, platform RPC, durable store and the event hub",
		size: 1024,
		warm: 8,
		gen:  (*generator).runJobs,
	},
	{
		name: "cluster-fanout",
		why:  "large decomposes on a 3-node cluster: span fan-out, peer RPC and merge in internal/cluster",
		size: 1024,
		warm: 8,
		gen:  (*generator).fanout,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// generator draws a workload's requests from its seed. Mix proportions
// are exact and sizes are stratified (one uniform draw inside each of
// count equal strata, then shuffled), so two seeds give different
// sequences with the same composition: the run-to-run spread then comes
// from the system, not from how many large requests a seed happened to
// draw.
type generator struct {
	rng   *rand.Rand
	menus []loadedMenu
}

func newGenerator(w workload, seed int64, ms []loadedMenu) *generator {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	return &generator{rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64()))), menus: ms}
}

// strata returns count stratified uniforms in [0, 1), shuffled.
func (g *generator) strata(count int) []float64 {
	u := make([]float64, count)
	for i := range u {
		u[i] = (float64(i) + g.rng.Float64()) / float64(count)
	}
	g.rng.Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
	return u
}

// logUniform maps a uniform u to an integer log-uniform in [lo, hi].
func logUniform(u, lo, hi float64) int {
	return int(math.Round(math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))))
}

// hotKeys returns count hot-key indexes, each of the 18 keys equally
// often, shuffled.
func (g *generator) hotKeys(count int) []int {
	keys := make([]int, count)
	for i := range keys {
		keys[i] = i % (len(g.menus) * len(hotThresholds))
	}
	g.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func (g *generator) hotKey(k int) (int, float64) {
	return k / len(hotThresholds), hotThresholds[k%len(hotThresholds)]
}

// mix returns size labels with exactly counts[i] of label i (the last
// label takes the rest), shuffled.
func (g *generator) mix(size int, counts ...int) []int {
	labels := make([]int, 0, size)
	for l, c := range counts {
		for i := 0; i < c; i++ {
			labels = append(labels, l)
		}
	}
	for len(labels) < size {
		labels = append(labels, len(counts))
	}
	g.rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	return labels
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func decomposeBody(bins string, n int, t float64, plan bool) []byte {
	extra := ""
	if plan {
		extra = `,"include_plan":true`
	}
	return []byte(fmt.Sprintf(`{"bins":%s,"n":%d,"threshold":%s%s}`, bins, n, fmtFloat(t), extra))
}

// hot: 3 in 4 requests are single decomposes with n log-uniform in
// [1e3, 1e6], 1 in 10 of them asking for the NDJSON plan; 1 in 4 is a
// batch of 32 same-key members with n in [1e3, 1e4].
func (g *generator) hot(size int) []request {
	const batchSize = 32
	nBatch := size / 4
	nNDJSON := (size - nBatch) / 10
	labels := g.mix(size, nBatch, nNDJSON)
	keys := g.hotKeys(size)
	ndjsonN := g.strata(nNDJSON)
	singleN := g.strata(size - nBatch - nNDJSON)
	memberN := g.strata(nBatch * batchSize)
	reqs := make([]request, size)
	for i, label := range labels {
		m, t := g.hotKey(keys[i])
		bins := g.menus[m].json
		switch label {
		case 0:
			sizes := make([]int, batchSize)
			var sb strings.Builder
			fmt.Fprintf(&sb, `{"bins":%s,"instances":[`, bins)
			for k := range sizes {
				sizes[k] = 1000 + int(memberN[0]*9001)
				memberN = memberN[1:]
				if k > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, `{"n":%d,"threshold":%s}`, sizes[k], fmtFloat(t))
			}
			sb.WriteString("]}")
			reqs[i] = request{kind: kindBatch, path: "/v1/decompose/batch", body: []byte(sb.String()),
				menu: m, threshold: t, sizes: sizes, want: expect{members: make([]float64, batchSize)}}
		case 1:
			n := logUniform(ndjsonN[0], 1e3, 1e6)
			ndjsonN = ndjsonN[1:]
			reqs[i] = request{kind: kindNDJSON, path: "/v1/decompose", body: decomposeBody(bins, n, t, true),
				menu: m, threshold: t, n: n}
		default:
			n := logUniform(singleN[0], 1e3, 1e6)
			singleN = singleN[1:]
			reqs[i] = request{kind: kindDecompose, path: "/v1/decompose", body: decomposeBody(bins, n, t, false),
				menu: m, threshold: t, n: n}
		}
	}
	return reqs
}

// Menu-churn key space: 6 menus × 167 thresholds ≈ 1000 keys, about 8×
// the 128-entry cache, drawn with popularity ∝ 1/rank^churnSkew over a
// seeded permutation. The skew puts roughly 40% of traffic on cached
// keys.
const (
	churnThresholds = 167
	churnSkew       = 0.8
	churnRanking    = 1
)

// warmSeed draws every workload's warm-up sequence.
const warmSeed = -1

// churn: homogeneous n = 2000 requests over the skewed key space; 1 in
// 4 is heterogeneous instead, with 200 per-task thresholds drawn from a
// continuous range below the key's threshold, so its strictest class is
// a fresh key every time. Key popularity is a property of the workload:
// its ranking is a fixed permutation, and the seed only draws from it.
func (g *generator) churn(size int) []request {
	type key struct {
		menu      int
		threshold float64
	}
	var keys []key
	for m := range g.menus {
		for k := 0; k < churnThresholds; k++ {
			keys = append(keys, key{m, 0.8 + 0.18*float64(k)/float64(churnThresholds-1)})
		}
	}
	rand.New(rand.NewSource(churnRanking)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	cdf := make([]float64, len(keys))
	total := 0.0
	for i := range keys {
		total += 1 / math.Pow(float64(i+1), churnSkew)
		cdf[i] = total
	}
	labels := g.mix(size, size/4)
	reqs := make([]request, size)
	for i, u := range g.strata(size) {
		k := keys[sort.SearchFloat64s(cdf, u*total)]
		bins := g.menus[k.menu].json
		if labels[i] == 1 {
			reqs[i] = request{kind: kindDecompose, path: "/v1/decompose",
				body: decomposeBody(bins, 2000, k.threshold, false), menu: k.menu, threshold: k.threshold, n: 2000}
			continue
		}
		ts := make([]float64, 200)
		strs := make([]string, len(ts))
		for j := range ts {
			ts[j] = 0.7 + g.rng.Float64()*(k.threshold-0.7)
			strs[j] = fmtFloat(ts[j])
		}
		body := fmt.Sprintf(`{"bins":%s,"thresholds":[%s]}`, bins, strings.Join(strs, ","))
		reqs[i] = request{kind: kindDecompose, path: "/v1/decompose", body: []byte(body),
			menu: k.menu, n: len(ts), thresholds: ts}
	}
	return reqs
}

// runJobs: remote run jobs over the hot keys with n in [500, 2000].
func (g *generator) runJobs(size int) []request {
	keys := g.hotKeys(size)
	reqs := make([]request, size)
	for i, u := range g.strata(size) {
		m, t := g.hotKey(keys[i])
		n := 500 + int(u*1501)
		body := fmt.Sprintf(`{"kind":"run","bins":%s,"n":%d,"threshold":%s,"run":{"platform_kind":"remote"}}`,
			g.menus[m].json, n, fmtFloat(t))
		reqs[i] = request{kind: kindRun, path: "/v1/jobs", body: []byte(body), menu: m, threshold: t, n: n,
			want: expect{tasks: n}}
	}
	return reqs
}

// fanout: summary-only decomposes over the hot keys with n log-uniform
// in [2e4, 2e5], which the entry node must answer through the cluster
// solver.
func (g *generator) fanout(size int) []request {
	keys := g.hotKeys(size)
	reqs := make([]request, size)
	for i, u := range g.strata(size) {
		m, t := g.hotKey(keys[i])
		n := logUniform(u, 2e4, 2e5)
		reqs[i] = request{kind: kindDecompose, path: "/v1/decompose", body: decomposeBody(g.menus[m].json, n, t, false),
			menu: m, threshold: t, n: n, want: expect{solver: service.ClusterSolverName}}
	}
	return reqs
}

// generate draws the workload's sequence and fills in every expected
// answer before any set-up clock starts, without the service's code:
// homogeneous instances by an unsharded single-node solve
// (opq.SolveRunsRange over the whole range), heterogeneous ones by
// unsharded OPQ-Extended (hetero.Solve). Every served path must
// reproduce these exactly.
func generate(w workload, seed int64, size int, ms []loadedMenu) ([]request, error) {
	reqs := w.gen(newGenerator(w, seed, ms), size)
	type key struct {
		menu int
		t    float64
		n    int
	}
	queues := make(map[key]*opq.Queue)
	memo := make(map[key]core.Summary)
	solve := func(menu int, t float64, n int) (core.Summary, error) {
		k := key{menu, t, n}
		if s, ok := memo[k]; ok {
			return s, nil
		}
		qk := key{menu, t, 0}
		q := queues[qk]
		if q == nil {
			var err error
			if q, err = opq.Build(ms[menu].bins, t); err != nil {
				return core.Summary{}, fmt.Errorf("reference queue: %w", err)
			}
			queues[qk] = q
		}
		pr, err := opq.SolveRunsRange(q, 0, n)
		if err != nil {
			return core.Summary{}, fmt.Errorf("reference solve: %w", err)
		}
		sum, err := core.NewRunPlan(pr).Summarize(ms[menu].bins)
		if err != nil {
			return core.Summary{}, fmt.Errorf("reference summary: %w", err)
		}
		memo[k] = sum
		return sum, nil
	}
	for i := range reqs {
		r := &reqs[i]
		var (
			s   core.Summary
			err error
		)
		switch {
		case r.kind == kindRun:
			continue
		case r.kind == kindBatch:
			for k, n := range r.sizes {
				if s, err = solve(r.menu, r.threshold, n); err != nil {
					return nil, err
				}
				r.want.members[k] = s.Cost
			}
			continue
		case r.thresholds != nil:
			in, err := core.NewHeterogeneous(ms[r.menu].bins, r.thresholds)
			if err != nil {
				return nil, err
			}
			plan, err := hetero.Solve(in)
			if err != nil {
				return nil, fmt.Errorf("reference solve: %w", err)
			}
			if s, err = plan.Summarize(ms[r.menu].bins); err != nil {
				return nil, fmt.Errorf("reference summary: %w", err)
			}
		default:
			if s, err = solve(r.menu, r.threshold, r.n); err != nil {
				return nil, err
			}
		}
		r.want.cost, r.want.uses, r.want.assignments = s.Cost, s.NumUses, s.NumAssignments
	}
	return reqs, nil
}
