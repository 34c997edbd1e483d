package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark runs on shared virtual machines whose hypervisor takes
// the CPU away in bursts: within one run, the share of CPU time stolen
// swings between 0 and 25% from one second to the next, and a stolen
// millisecond lands directly on the latency tail (a window's p99 rises
// roughly in proportion to its steal). A timed phase is therefore cut
// into one-second windows, each tagged with the steal /proc/stat reports
// for it, and the timing metrics are read from the quiet windows: every
// window with at most calmSteal stolen, then further windows in order of
// increasing steal until they hold quietSamples verified requests (or
// half the run's, on low-rate workloads) and at least minQuietWindows
// windows. On a calm host that is every window.
// Parent and change are measured the same way; a slower program is
// slower in quiet windows too.
//
// The filter cannot help when the steal is sustained: on 2-vCPU hosts
// stolen at 20-30% for minutes on end, no window is quiet, and the p99
// of a 3.6 ms menu-churn request rose to 6-14 ms (decompose-hot's 45 ms
// p99 by a third and more) while the median moved by about 15%.
// req_p99_ms is therefore computed and written to the table and the
// result file but kept off the result line, whose metrics a change is
// held to.
const (
	calmSteal       = 0.02
	quietSamples    = 2500
	minQuietWindows = 3
)

// window is one second of a timed phase.
type window struct {
	start, end time.Time
	ok         int64
	cpu        time.Duration
	// rss is the peak resident set within the window, in MiB.
	rss float64
	// steal is the share of machine CPU time stolen in the window.
	steal float64
	// heap is the live Go heap the collections found, in MiB, averaged
	// over ten samples across the window.
	heap float64
	// p50 and p99 are the latencies of requests completed in the window.
	p50, p99 float64
}

// MarshalJSON writes a window for the result file.
func (w window) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Seconds float64 `json:"s"`
		OK      int64   `json:"ok"`
		CPUMS   float64 `json:"cpu_ms"`
		RSS     float64 `json:"rss_mb"`
		Steal   float64 `json:"steal"`
		Heap    float64 `json:"heap_mb"`
		P50     float64 `json:"p50_ms"`
		P99     float64 `json:"p99_ms"`
	}{w.end.Sub(w.start).Seconds(), w.ok, float64(w.cpu.Microseconds()) / 1e3, w.rss, w.steal, w.heap, w.p50, w.p99})
}

// measure runs one timed closed-loop phase and computes the end-to-end
// metrics from its quiet windows.
func measure(ctx context.Context, s *system, reqs []request, seconds float64, t *tracer) (metrics, phaseResult) {
	setupPeak := peakRSSMB()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stop := make(chan struct{})
	done := make(chan struct{})
	var ws []window
	var heap []heapSample
	go func() {
		defer close(done)
		ws, heap = sampleWindows(s, stop)
	}()
	ph := s.drive(ctx, reqs, 0, time.Now().Add(time.Duration(seconds*float64(time.Second))), t)
	close(stop)
	<-done
	runtime.ReadMemStats(&ms1)

	// Attribute each request to the window it completed in.
	perWindow := make([][]float64, len(ws))
	for _, sm := range ph.samples {
		i := sort.Search(len(ws), func(i int) bool { return !ws[i].end.Before(sm.end) })
		if i < len(ws) && !sm.end.Before(ws[i].start) {
			perWindow[i] = append(perWindow[i], sm.ms)
		}
	}
	for i := range ws {
		sort.Float64s(perWindow[i])
		ws[i].p50, ws[i].p99 = quantile(perWindow[i], 0.5), quantile(perWindow[i], 0.99)
	}

	var lat, rss []float64
	var ok int64
	var cpu, dur time.Duration
	quiet := quietWindows(ws)
	for _, i := range quiet {
		w := ws[i]
		ok += w.ok
		cpu += w.cpu
		dur += w.end.Sub(w.start)
		lat = append(lat, perWindow[i]...)
	}
	sort.Float64s(lat)
	// Memory does not follow steal: it is read over every window.
	for _, w := range ws {
		rss = append(rss, w.rss)
		ph.stealRatio += w.steal / float64(len(ws))
	}

	m := metrics{}
	m.set("req_p50_ms", quantile(lat, 0.50), "ms", len(lat))
	m.set("req_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	m.set("throughput_rps", float64(ok)/dur.Seconds(), "1/s", int(ok))
	m.set("cpu_ms_per_req", cpu.Seconds()*1e3/float64(max(ok, 1)), "ms", int(ok))
	m.set("heap_live_mb", heapAt(heap, float64(len(reqs))), "MiB", len(heap))
	m.set("mem_peak_mb", median(rss), "MiB", len(rss))
	all := len(ph.samples)
	m.set("alloc_kb_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(max(all, 1)), "KiB", all)
	m.set("fail_ratio", float64(ph.failed+ph.wrong)/float64(max(ph.attempted, 1)), "ratio", ph.attempted)
	peak := setupPeak
	for _, w := range ws {
		peak = max(peak, w.rss)
	}
	m.set("mem_peak_max_mb", peak, "MiB", len(ws))
	m.set("windows_used", float64(len(quiet)), "count", len(ws))
	ph.windows = ws
	return m, ph
}

// quietWindows returns the indexes of the quiet windows: those with at
// most calmSteal stolen, then more in order of increasing steal (earlier
// first on ties) until they hold min(quietSamples, half of all) verified
// requests and minQuietWindows windows, or all.
func quietWindows(ws []window) []int {
	order := make([]int, len(ws))
	var total int64
	for i := range order {
		order[i] = i
		total += ws[i].ok
	}
	floor := min(quietSamples, total/2)
	sort.SliceStable(order, func(a, b int) bool { return ws[order[a]].steal < ws[order[b]].steal })
	var ok int64
	for n, i := range order {
		if ws[i].steal > calmSteal && ok >= floor && n >= minQuietWindows {
			return order[:n]
		}
		ok += ws[i].ok
	}
	return order
}

// heapSample is one reading of the live heap, in MiB, with the number
// of verified requests the phase had served by then.
type heapSample struct{ served, mb float64 }

// heapAt fits a line to the live heap against the requests served and
// reads it at count. A daemon that keeps every finished job (run-jobs)
// grows with the requests it served, so a mean over time would follow
// throughput; read at a fixed count it does not. On a flat heap the line
// is flat and the value is the mean.
func heapAt(samples []heapSample, count float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var mServed, mMB float64
	for _, h := range samples {
		mServed += h.served / float64(len(samples))
		mMB += h.mb / float64(len(samples))
	}
	var sxy, sxx float64
	for _, h := range samples {
		sxy += (h.served - mServed) * (h.mb - mMB)
		sxx += (h.served - mServed) * (h.served - mServed)
	}
	if sxx == 0 {
		return mMB
	}
	return mMB + sxy/sxx*(count-mServed)
}

// sampleWindows cuts the phase into one-second windows until stop
// closes, and reads the live heap ten times a second; the last, partial
// window is dropped.
func sampleWindows(s *system, stop <-chan struct{}) ([]window, []heapSample) {
	const heapSamples = 10
	tick := time.NewTicker(time.Second / heapSamples)
	defer tick.Stop()
	var ws []window
	var hs []heapSample
	resetPeakRSS()
	last, lastOK, lastCPU, lastTicks := time.Now(), s.completed.Load(), cpuTime(), readCPUTicks()
	first := lastOK
	heap := 0.0
	for n := 1; ; n++ {
		select {
		case <-tick.C:
		case <-stop:
			return ws, hs
		}
		mb := liveHeapMB()
		hs = append(hs, heapSample{served: float64(s.completed.Load() - first), mb: mb})
		heap += mb / heapSamples
		if n%heapSamples != 0 {
			continue
		}
		now, ok, cpu, ticks := time.Now(), s.completed.Load(), cpuTime(), readCPUTicks()
		ws = append(ws, window{start: last, end: now, ok: ok - lastOK, cpu: cpu - lastCPU,
			rss: peakRSSMB(), steal: ticks.stealSince(lastTicks), heap: heap})
		resetPeakRSS()
		last, lastOK, lastCPU, lastTicks, heap = now, ok, cpu, ticks, 0
	}
}

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks is the machine-wide CPU time split of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of machine CPU time the hypervisor took away
// since an earlier reading.
func (t cpuTicks) stealSince(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}

// liveHeapMB is the heap the last garbage collection found live, in MiB.
func liveHeapMB() float64 {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindUint64 {
		return math.NaN()
	}
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// resetPeakRSS restarts the kernel's VmHWM count at the current RSS.
// Kernels without the facility keep the whole-process peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return v / 1024
			}
		}
	}
	return math.NaN()
}
