package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// numClients is the closed-loop client count: one per core of the
// 2-core machines the benchmark is sized for. Each client waits for a
// reply (a plan, or a run's terminal report) before sending its next
// request, as a requester acting on the answer would.
const numClients = 2

// idPrefix marks the X-Request-ID of every request the load generator
// sends, so the traced handler can tell them from peer traffic.
const idPrefix = "bench-"

// client is one closed-loop caller with a single keep-alive connection.
type client struct {
	id   int
	base string
	tr   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer
	// br reads NDJSON plans and event streams a line at a time.
	br  *bufio.Reader
	seq int
}

func newClient(id int, base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{id: id, base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute},
		br: bufio.NewReaderSize(nil, 64<<10)}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// outcome is what one request produced.
type outcome struct {
	ok      bool
	wrong   bool
	err     error
	latency time.Duration
}

// sample is one successful request: when it completed and how long it
// took.
type sample struct {
	end time.Time
	ms  float64
}

// phaseResult aggregates one closed-loop phase.
type phaseResult struct {
	attempted, failed, wrong int
	firstErr                 error
	// samples are the successful, verified requests' latencies.
	samples    []sample
	stealRatio float64
	windows    []window
}

// drive runs every client in closed loop over the sequence, client i
// taking positions i, i+numClients, … (wrapping around). It stops after
// count requests when count > 0, otherwise at the deadline.
func (s *system) drive(ctx context.Context, reqs []request, count int, deadline time.Time, t *tracer) phaseResult {
	results := make([]phaseResult, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[i]
			for k := i; ; k += len(s.clients) {
				if count > 0 && k >= count || count == 0 && !time.Now().Before(deadline) {
					return
				}
				o := c.do(ctx, &reqs[k%len(reqs)], s, t)
				res.attempted++
				switch {
				case o.ok:
					res.samples = append(res.samples, sample{end: time.Now(), ms: float64(o.latency.Nanoseconds()) / 1e6})
					s.completed.Add(1)
				case o.wrong:
					res.wrong++
				default:
					res.failed++
				}
				if o.err != nil && res.firstErr == nil {
					res.firstErr = o.err
				}
			}
		}()
	}
	wg.Wait()
	var out phaseResult
	for _, r := range results {
		out.attempted += r.attempted
		out.failed += r.failed
		out.wrong += r.wrong
		out.samples = append(out.samples, r.samples...)
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// post sends one request and reads the whole reply into c.buf.
func (c *client) post(ctx context.Context, path, id string, body []byte) (int, error) {
	req, err := newPost(ctx, c.base+path, id, body)
	if err != nil {
		return 0, err
	}
	return c.exchange(req)
}

func newPost(ctx context.Context, url, id string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	return req, nil
}

func (c *client) exchange(req *http.Request) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (c *client) nextID() string {
	c.seq++
	return idPrefix + strconv.Itoa(c.id) + "-" + strconv.Itoa(c.seq)
}

// warmup sends a request and requires a 200, checking nothing else.
func (c *client) warmup(ctx context.Context, r *request) (int, error) {
	code, err := c.post(ctx, r.path, c.nextID(), r.body)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", r.path, code, bytes.TrimSpace(c.buf.Bytes()))
	}
	return code, err
}

// do sends one request, times it, and verifies the reply against the
// reference. A JSON reply is checked after the clock stops; an NDJSON
// plan is checked line by line as it arrives, and the clock stops when
// the stream ends.
func (c *client) do(ctx context.Context, r *request, s *system, t *tracer) outcome {
	switch r.kind {
	case kindRun:
		return c.doRun(ctx, r, s, t)
	case kindNDJSON:
		return c.doNDJSON(ctx, r, t)
	}
	id := c.nextID()
	var root int64
	if t.on() {
		root = t.now()
	}
	start := time.Now()
	code, err := c.post(ctx, r.path, id, r.body)
	lat := time.Since(start)
	var end int64
	if t.on() {
		end = t.now()
	}
	if err != nil {
		return outcome{err: err}
	}
	if code != http.StatusOK {
		return outcome{err: fmt.Errorf("%s: status %d: %s", r.path, code, bytes.TrimSpace(c.buf.Bytes()))}
	}
	var solveMS float64
	if r.kind == kindBatch {
		solveMS, err = checkBatch(c.buf.Bytes(), r.want)
	} else {
		solveMS, err = checkDecompose(c.buf.Bytes(), r.want)
	}
	if err != nil {
		return outcome{wrong: true, err: err}
	}
	if t.on() {
		t.add(span{Kind: "client", Key: id, Start: root, End: end, Bytes: int64(c.buf.Len()), SolveMS: solveMS})
	}
	return outcome{ok: true, latency: lat}
}

func (c *client) doNDJSON(ctx context.Context, r *request, t *tracer) outcome {
	id := c.nextID()
	req, err := newPost(ctx, c.base+r.path, id, r.body)
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Accept", "application/x-ndjson")
	var root int64
	if t.on() {
		root = t.now()
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return outcome{err: fmt.Errorf("%s: status %d", r.path, resp.StatusCode)}
	}
	counted := &countingReader{r: resp.Body}
	c.br.Reset(counted)
	solveMS, err := checkNDJSON(c.br, r.want)
	lat := time.Since(start)
	if err != nil {
		return outcome{wrong: true, err: err}
	}
	if t.on() {
		t.add(span{Kind: "client", Key: id, Start: root, End: t.now(), Bytes: counted.n, SolveMS: solveMS})
	}
	return outcome{ok: true, latency: lat}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// doRun submits a run job, follows its SSE stream to the terminal frame
// (the end of the timed span), then fetches and checks its status.
func (c *client) doRun(ctx context.Context, r *request, s *system, t *tracer) outcome {
	id := c.nextID()
	var root int64
	if t.on() {
		root = t.now()
	}
	start := time.Now()
	code, err := c.post(ctx, r.path, id, r.body)
	if err != nil {
		return outcome{err: err}
	}
	if code != http.StatusAccepted {
		return outcome{err: fmt.Errorf("submit: status %d: %s", code, bytes.TrimSpace(c.buf.Bytes()))}
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &sub); err != nil || sub.ID == "" {
		return outcome{err: fmt.Errorf("submit reply without a job id: %s", c.buf.Bytes())}
	}
	var submitted int64
	if t.on() {
		submitted = t.now()
	}
	frames, first, err := c.follow(ctx, sub.ID, id, t)
	lat := time.Since(start)
	if err != nil {
		return outcome{err: err}
	}
	if t.on() {
		end := t.now()
		t.add(span{Kind: "client", Key: id, Job: sub.ID, Start: root, End: end})
		t.add(span{Kind: "submit", Key: id, Start: root, End: submitted})
		t.add(span{Kind: "events", Key: id, Start: submitted, End: first, Bytes: int64(frames)})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+sub.ID, nil)
	if err != nil {
		return outcome{err: err}
	}
	if code, err = c.exchange(req); err != nil || code != http.StatusOK {
		return outcome{err: fmt.Errorf("job status: %d %v", code, err)}
	}
	if err := checkRunStatus(c.buf.Bytes(), r.want, s.ledger.take(sub.ID)); err != nil {
		return outcome{wrong: true, err: err}
	}
	return outcome{ok: true, latency: lat}
}

// follow reads a job's event stream until its terminal frame, returning
// the frame count and the tracer time of the first frame.
func (c *client) follow(ctx context.Context, job, id string, t *tracer) (int, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+job+"/events", nil)
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("X-Request-ID", id)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	c.br.Reset(resp.Body)
	frames, event := 0, ""
	var first int64
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return frames, first, fmt.Errorf("events stream ended before a terminal frame: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if event == "" {
				continue
			}
			frames++
			if frames == 1 && t.on() {
				first = t.now()
			}
			if event != "progress" {
				// Terminal frame: drain so the connection is reused.
				_, err := io.Copy(io.Discard, resp.Body)
				return frames, first, err
			}
			event = ""
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		}
	}
}
