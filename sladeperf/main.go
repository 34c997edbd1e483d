package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// Everything a run writes lives under .bench_build in the working
// directory (the repository root).
const (
	buildDir   = ".bench_build"
	tmpDir     = buildDir + "/tmp"
	resultsDir = buildDir + "/results"
)

// setupRounds is how many times a run boots and warms its system; the
// reported set-up time is the median round.
const setupRounds = 7

// endToEnd lists the metrics an untraced run reports on its result
// line. The table and the result file add fail_ratio, which is 0 on
// every passing run (the line carries it as attempted and failed);
// req_p99_ms, which on a shared virtual machine follows the hypervisor's
// steal more than the program (see measure); and the peak RSS metrics,
// which on these workloads follow when the collector happens to run more
// than the program's memory use.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"req_p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_req", "KiB"},
	{"heap_live_mb", "MiB"},
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, samples int) {
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// options are the command-line settings of one invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	profile string
}

// result is the result file of one workload run.
type result struct {
	Workload   string         `json:"workload"`
	Why        string         `json:"why"`
	Provenance provenance     `json:"provenance"`
	Config     resolvedConfig `json:"config"`
	Trace      bool           `json:"trace"`
	Correct    bool           `json:"correct"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Wrong      int            `json:"wrong"`
	FirstError string         `json:"first_error,omitempty"`
	SetupS     []float64      `json:"setup_rounds_s"`
	Metrics    metrics        `json:"metrics"`
	// Untraced holds the end-to-end metrics of a traced run's untraced
	// half, the baseline of trace.overhead_ms.
	Untraced metrics `json:"untraced,omitempty"`
	// StealRatio is the machine-wide share of CPU time the hypervisor
	// took during the measured phases.
	StealRatio float64 `json:"steal_ratio"`
	// Windows are the one-second windows of the (first) measured phase.
	Windows []window `json:"windows"`
	// Spans names the file the traced run's spans were written to.
	Spans string `json:"spans,omitempty"`
}

// provenance records what produced a result.
type provenance struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"run_seconds"`
	Started    string  `json:"started"`
}

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", 1, "seed of the generated request sequence")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics instead of end-to-end ones")
	profile := flag.String("profile", "", "directory for per-workload CPU and allocation profiles of the traced phase")
	flag.Parse()
	// A traced run measures two halves of at least two one-second
	// windows each.
	if *wl == "" || *seconds < 4 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: sladeperf --workload NAME [--seed N] [--seconds S>=4] [--trace 0|1] [--profile DIR]")
		return 2
	}
	var chosen []workload
	if *wl == "all" {
		chosen = workloads
	} else if w, ok := findWorkload(*wl); ok {
		chosen = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "sladeperf: unknown workload %q (have %s, all)\n", *wl, workloadNames())
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, profile: *profile}
	for _, dir := range []string{tmpDir, resultsDir, opts.profile} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sladeperf:", err)
			return 1
		}
	}

	// The last stdout line is one JSON object. With one workload its
	// metrics are that workload's; with "all" each name is prefixed by
	// its workload.
	type reported struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{Correct: true, Metrics: map[string]reported{}}
	for _, w := range chosen {
		res, err := runWorkload(context.Background(), w, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sladeperf: %s: %v\n", w.name, err)
			return 1
		}
		printTable(res)
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed + res.Wrong
		names := endToEnd
		if opts.trace {
			names = layerMetrics
		}
		for _, n := range names {
			m := res.Metrics[n.name]
			name := n.name
			if len(chosen) > 1 {
				name = w.name + "." + name
			}
			final.Metrics[name] = reported{Value: m.Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sladeperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkload computes the reference answers, sets the system up
// setupRounds times, and measures. A traced run measures an untraced
// half and a traced half of the same length.
func runWorkload(ctx context.Context, w workload, opts options) (*result, error) {
	ms, err := loadMenus()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	reqs, err := generate(w, opts.seed, w.size, ms)
	var warm []request
	if err == nil {
		warm, err = generate(w, warmSeed, w.warm, ms)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d requests and their reference answers in %.2fs\n", w.name, len(reqs), time.Since(start).Seconds())

	// Hand the reference computation's memory back, so the memory
	// metrics cover only set-up and measurement.
	debug.FreeOSMemory()

	res := &result{Workload: w.name, Why: w.why, Provenance: provenanceOf(opts), Trace: opts.trace}
	sys, setupTimes, err := setup(ctx, w, opts.seed, ms, warm, setupRounds, nil)
	if err != nil {
		return nil, err
	}
	res.SetupS = setupTimes
	res.Config = sys.resolve(w)
	measured := opts.seconds
	if opts.trace {
		measured /= 2
	}
	m, ph := measure(ctx, sys, reqs, measured, nil)
	res.add(ph, sys.checkLedger())
	sys.close()
	m.set("setup_s", median(setupTimes), "s", len(setupTimes))
	if !opts.trace {
		res.Metrics = m
		res.Correct = res.Failed+res.Wrong == 0
		return res, res.write(opts, nil)
	}

	res.Untraced = m
	t := newTracer()
	tsys, _, err := setup(ctx, w, opts.seed, ms, warm, 1, t)
	if err != nil {
		return nil, err
	}
	before := snapshotCounters(tsys)
	stop, err := startProfile(opts.profile, w.name)
	if err != nil {
		tsys.close()
		return nil, err
	}
	t.armed.Store(true)
	tm, tph := measure(ctx, tsys, reqs, measured, t)
	t.armed.Store(false)
	if err := stop(); err != nil {
		tsys.close()
		return nil, err
	}
	res.add(tph, tsys.checkLedger())
	after := snapshotCounters(tsys)
	layers, err := perLayer(ctx, w, tsys, t.snapshot(), before, after, ms, reqs)
	tsys.close()
	if err != nil {
		return nil, err
	}
	layers.set("trace.overhead_ms", tm["req_p50_ms"].Value-m["req_p50_ms"].Value, "ms", tm["req_p50_ms"].Samples)
	res.Metrics = layers
	res.Correct = res.Failed+res.Wrong == 0
	return res, res.write(opts, t.snapshot())
}

// add folds one measured phase into the result; books is the outcome of
// the marketplace ledger check, which counts as one wrong output.
func (r *result) add(p phaseResult, books error) {
	if books != nil {
		p.wrong++
		p.attempted++
		if p.firstErr == nil {
			p.firstErr = books
		}
	}
	if r.Windows == nil {
		r.Windows = p.windows
	}
	r.StealRatio = max(r.StealRatio, p.stealRatio)
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Wrong += p.wrong
	if p.firstErr != nil && r.FirstError == "" {
		r.FirstError = p.firstErr.Error()
	}
}

func provenanceOf(opts options) provenance {
	p := provenance{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       opts.seed,
		Seconds:    opts.seconds,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// run.sh passes the commit when it runs inside a git checkout; an
	// exported tree has none.
	if c := os.Getenv("SLADEPERF_COMMIT"); c != "" {
		p.Commit = c
	}
	return p
}

// startProfile starts a CPU profile of the traced phase when dir is set;
// the returned stop writes it and an allocation profile.
func startProfile(dir, name string) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	cpu, err := os.Create(filepath.Join(dir, name+"-cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, name+"-allocs.pprof"))
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// write stores the result file, and a traced run's spans beside it.
func (r *result) write(opts options, spans []span) error {
	traced := 0
	if opts.trace {
		traced = 1
	}
	base := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, opts.seed, traced))
	if spans != nil {
		r.Spans = base + ".spans.jsonl"
		f, err := os.Create(r.Spans)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		enc := json.NewEncoder(bw)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(data, '\n'), 0o644)
}

// printTable prints a workload's metrics, one per line, for people; the
// JSON result line follows at the end of the output.
func printTable(r *result) {
	fmt.Printf("workload %s (seed %d, %gs, trace=%v): attempted %d, failed %d, wrong %d, host steal %.1f%%\n",
		r.Workload, r.Provenance.Seed, r.Provenance.Seconds, r.Trace, r.Attempted, r.Failed, r.Wrong, 100*r.StealRatio)
	if r.FirstError != "" {
		fmt.Printf("  first error: %s\n", r.FirstError)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-28s %14.4f %-6s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
	}
}
