package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// errWrong marks a reply that arrived intact but disagrees with the
// single-node reference: it counts in fail_ratio and makes the run exit
// non-zero.
var errWrong = errors.New("wrong output")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errWrong}, args...)...)
}

// summary is the part of a plan summary the checks read.
type summary struct {
	NumUses        int     `json:"num_uses"`
	NumAssignments int     `json:"num_assignments"`
	Cost           float64 `json:"cost"`
}

// decomposeReply is the POST /v1/decompose reply (and the NDJSON header
// line).
type decomposeReply struct {
	Solver    string  `json:"solver"`
	Summary   summary `json:"summary"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// checkDecompose verifies a summary reply: the cost must equal the
// reference bit for bit, and the solver must match when one is expected.
// It returns the server's own solve time (elapsed_ms).
func checkDecompose(body []byte, want expect) (float64, error) {
	var r decomposeReply
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, wrongf("decode decompose reply: %v", err)
	}
	if err := checkSummary(r, want); err != nil {
		return 0, err
	}
	return r.ElapsedMS, nil
}

func checkSummary(r decomposeReply, want expect) error {
	if want.solver != "" && r.Solver != want.solver {
		return wrongf("served by solver %q, want %q", r.Solver, want.solver)
	}
	if r.Summary.Cost != want.cost {
		return wrongf("cost %v, reference %v", r.Summary.Cost, want.cost)
	}
	return nil
}

// checkNDJSON verifies a streamed plan as it reads it: the header
// line's summary must match the reference, and the use lines that follow
// must add up to the reference use and assignment counts. It holds a
// fixed-size buffer, however large the plan.
func checkNDJSON(br *bufio.Reader, want expect) (float64, error) {
	head, err := br.ReadSlice('\n')
	if err != nil {
		return 0, wrongf("NDJSON reply has no header line: %v", err)
	}
	var r decomposeReply
	if err := json.Unmarshal(head, &r); err != nil {
		return 0, wrongf("decode NDJSON header: %v", err)
	}
	if err := checkSummary(r, want); err != nil {
		return 0, err
	}
	// Each use line is {"cardinality":c,"tasks":[t1,...,tk]}: one line
	// ending, and k commas (one after the cardinality, k-1 between task
	// ids). Counting both over the raw stream checks the plan without
	// parsing it line by line.
	uses, assignments := 0, 0
	var last byte = '\n'
	buf := make([]byte, 32<<10)
	for {
		n, err := br.Read(buf)
		chunk := buf[:n]
		uses += bytes.Count(chunk, []byte{'\n'})
		assignments += bytes.Count(chunk, []byte{','})
		if n > 0 {
			last = chunk[n-1]
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, wrongf("reading NDJSON plan: %v", err)
		}
	}
	if last != '\n' {
		return 0, wrongf("NDJSON plan ends mid-line")
	}
	if uses != want.uses || assignments != want.assignments {
		return 0, wrongf("NDJSON plan has %d uses / %d assignments, reference %d / %d",
			uses, assignments, want.uses, want.assignments)
	}
	return r.ElapsedMS, nil
}

// checkBatch verifies a batch reply member by member.
func checkBatch(body []byte, want expect) (float64, error) {
	var r struct {
		Results []struct {
			Summary summary `json:"summary"`
		} `json:"results"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, wrongf("decode batch reply: %v", err)
	}
	if len(r.Results) != len(want.members) {
		return 0, wrongf("batch reply has %d members, want %d", len(r.Results), len(want.members))
	}
	for i, m := range r.Results {
		if m.Summary.Cost != want.members[i] {
			return 0, wrongf("batch member %d cost %v, reference %v", i, m.Summary.Cost, want.members[i])
		}
	}
	return r.ElapsedMS, nil
}

// runReport is the part of a run job's execution report the check reads.
type runReport struct {
	Spent          float64 `json:"spent"`
	Tasks          int     `json:"tasks"`
	CoveredTasks   int     `json:"covered_tasks"`
	UncoveredCount int     `json:"uncovered_count"`
	Degraded       bool    `json:"degraded"`
	LastError      string  `json:"last_error"`
}

// checkRunStatus verifies a finished run job's status: done, with a
// report that is not degraded, covers every task, and spent exactly what
// the marketplace charged for the run.
func checkRunStatus(body []byte, want expect, charged float64) error {
	var st struct {
		State  string     `json:"state"`
		Error  string     `json:"error"`
		Report *runReport `json:"report"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return wrongf("decode job status: %v", err)
	}
	switch {
	case st.State != "done":
		return wrongf("run job ended %q (%s)", st.State, st.Error)
	case st.Report == nil:
		return wrongf("run job has no report")
	case st.Report.Degraded:
		return wrongf("run report degraded: %s", st.Report.LastError)
	case st.Report.Tasks != want.tasks:
		return wrongf("run report has %d tasks, want %d", st.Report.Tasks, want.tasks)
	case st.Report.CoveredTasks != want.tasks || st.Report.UncoveredCount != 0:
		return wrongf("run covered %d of %d tasks", st.Report.CoveredTasks, want.tasks)
	case st.Report.Spent != charged:
		return wrongf("run spent %v, marketplace charged %v", st.Report.Spent, charged)
	}
	return nil
}
