package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
)

func ndjsonReader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

// TestCheckersCatchCorruptedReplies feeds every checker a correct reply
// and corrupted variants of it; each corruption must be reported as a
// wrong output.
func TestCheckersCatchCorruptedReplies(t *testing.T) {
	const good = `{"solver":"cluster","n":5,"summary":{"uses":[],"num_uses":2,"num_assignments":5,"cost":0.68},"elapsed_ms":1.5}`
	want := expect{cost: 0.68, uses: 2, assignments: 5, solver: "cluster"}
	if ms, err := checkDecompose([]byte(good), want); err != nil || ms != 1.5 {
		t.Fatalf("good decompose reply rejected: %v (elapsed %v)", err, ms)
	}
	for name, body := range map[string]string{
		"cost off by one ulp": strings.Replace(good, `"cost":0.68`, `"cost":0.6800000000000002`, 1),
		"wrong solver":        strings.Replace(good, `"solver":"cluster"`, `"solver":"sharded"`, 1),
		"truncated":           good[:len(good)/2],
	} {
		if _, err := checkDecompose([]byte(body), want); !errors.Is(err, errWrong) {
			t.Errorf("decompose %s: got %v, want a wrong-output error", name, err)
		}
	}

	const lines = "{\"cardinality\":3,\"tasks\":[0,1,2]}\n{\"cardinality\":2,\"tasks\":[3,4]}\n"
	plan := good + "\n" + lines
	if _, err := checkNDJSON(ndjsonReader(plan), want); err != nil {
		t.Fatalf("good NDJSON plan rejected: %v", err)
	}
	for name, body := range map[string]string{
		"missing use line": good + "\n" + lines[:strings.Index(lines, "\n")+1],
		"missing task":     good + "\n" + strings.Replace(lines, "[3,4]", "[3]", 1),
		"cut mid-line":     plan[:len(plan)-4],
		"wrong header":     strings.Replace(plan, `"cost":0.68`, `"cost":0.7`, 1),
		"no header":        "",
	} {
		if _, err := checkNDJSON(ndjsonReader(body), want); !errors.Is(err, errWrong) {
			t.Errorf("NDJSON %s: got %v, want a wrong-output error", name, err)
		}
	}

	const batch = `{"solver":"sharded","instances":2,"results":[{"n":3,"summary":{"cost":1.25}},{"n":4,"summary":{"cost":2.5}}],"elapsed_ms":3}`
	bwant := expect{members: []float64{1.25, 2.5}}
	if _, err := checkBatch([]byte(batch), bwant); err != nil {
		t.Fatalf("good batch reply rejected: %v", err)
	}
	for name, body := range map[string]string{
		"member cost":     strings.Replace(batch, `"cost":2.5`, `"cost":2.25`, 1),
		"members swapped": `{"results":[{"n":4,"summary":{"cost":2.5}},{"n":3,"summary":{"cost":1.25}}]}`,
		"member missing":  strings.Replace(batch, `,{"n":4,"summary":{"cost":2.5}}`, "", 1),
	} {
		if _, err := checkBatch([]byte(body), bwant); !errors.Is(err, errWrong) {
			t.Errorf("batch %s: got %v, want a wrong-output error", name, err)
		}
	}

	const status = `{"id":"job-1","kind":"run","state":"done","report":{"spent":12.5,"tasks":4,"covered_tasks":4,"uncovered_count":0}}`
	rwant := expect{tasks: 4}
	if err := checkRunStatus([]byte(status), rwant, 12.5); err != nil {
		t.Fatalf("good run status rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		body    string
		charged float64
	}{
		"spend differs from charge": {status, 12.25},
		"degraded":                  {strings.Replace(status, `"uncovered_count":0`, `"uncovered_count":0,"degraded":true`, 1), 12.5},
		"task uncovered":            {strings.Replace(status, `"covered_tasks":4,"uncovered_count":0`, `"covered_tasks":3,"uncovered_count":1`, 1), 12.5},
		"no report":                 {`{"id":"job-1","state":"done"}`, 12.5},
		"failed":                    {`{"id":"job-1","state":"failed","error":"boom"}`, 12.5},
	} {
		if err := checkRunStatus([]byte(tc.body), rwant, tc.charged); !errors.Is(err, errWrong) {
			t.Errorf("run status %s: got %v, want a wrong-output error", name, err)
		}
	}
}

// TestBenchmarkManifestMatchesCommand pins BENCHMARK.json's workload and
// metric lists to the ones the command runs and reports.
func TestBenchmarkManifestMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit, Why string }
	var manifest struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, command has %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: manifest %+v, command %q / %q", i, got, w.name, w.why)
		}
	}
	for _, list := range []struct {
		name     string
		manifest []named
		command  []struct{ name, unit string }
	}{{"end_to_end", manifest.EndToEnd, endToEnd}, {"per_layer", manifest.PerLayer, layerMetrics}} {
		if len(list.manifest) != len(list.command) {
			t.Fatalf("%s: manifest lists %d metrics, command reports %d", list.name, len(list.manifest), len(list.command))
		}
		for i, m := range list.command {
			if got := list.manifest[i]; got.Name != m.name || got.Unit != m.unit {
				t.Errorf("%s %d: manifest %s [%s], command %s [%s]", list.name, i, got.Name, got.Unit, m.name, m.unit)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	// Overlapping and out-of-range children cover [10, 50) and [90, 100).
	got := selfTime(parent, [][2]int64{{30, 50}, {10, 40}, {90, 120}, {-5, -1}})
	if got != 50 {
		t.Fatalf("selfTime = %d, want 50", got)
	}
}

func TestHeapAt(t *testing.T) {
	// A heap growing by 0.5 MiB per request reads the same at a fixed
	// count whether the phase served 40 requests or 400.
	for _, served := range []float64{40, 400} {
		var hs []heapSample
		for i := 0; i <= 10; i++ {
			c := served * float64(i) / 10
			hs = append(hs, heapSample{served: c, mb: 8 + 0.5*c})
		}
		if got := heapAt(hs, 100); math.Abs(got-58) > 1e-9 {
			t.Errorf("served %v: heapAt = %v, want 58", served, got)
		}
	}
	flat := []heapSample{{0, 9}, {50, 11}, {100, 11}, {150, 9}}
	if got := heapAt(flat, 1000); math.Abs(got-10) > 1e-9 {
		t.Errorf("flat heap: heapAt = %v, want the mean 10", got)
	}
	if got := heapAt([]heapSample{{0, 7}, {0, 9}}, 100); got != 8 {
		t.Errorf("no requests served: heapAt = %v, want the mean 8", got)
	}
}
