package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch on the monotonic clock.
type span struct {
	// Kind names the boundary: "client" (the root, one per request),
	// "submit" and "events" (a run job's client calls), "server" (the
	// handler), "store", "platform" or "peer".
	Kind string `json:"kind"`
	// Key joins the span to its root: the request id for client and
	// server spans, the job id for store and platform spans. Peer spans
	// carry none; they join by containment (see unattributedPeers).
	Key string `json:"key,omitempty"`
	// Job is the job id a run-job root submitted.
	Job   string `json:"job,omitempty"`
	Op    string `json:"op,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Bytes is the response size; for an events span, the frame count.
	Bytes int64 `json:"bytes,omitempty"`
	// SolveMS is the solve time the server reported in the reply.
	SolveMS float64 `json:"solve_ms,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of the traced phase in memory; they are
// written out when the run ends. Wrappers record only while it is armed,
// so set-up and warm-up traffic leaves no spans.
type tracer struct {
	epoch time.Time
	armed atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) on() bool { return t != nil && t.armed.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// handler wraps the service handler to record the server span of every
// request the load generator sent (its X-Request-ID carries the client
// prefix) with the bytes written.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !t.on() || !strings.HasPrefix(id, idPrefix) {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.add(span{Kind: "server", Key: id, Op: r.URL.Path, Start: start, End: t.now(), Bytes: cw.n})
	})
}

// countingWriter counts response bytes; it forwards Flush so SSE
// streaming keeps working through it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tracedStore records a span per job-record operation, keyed by job id.
type tracedStore struct {
	store.Store
	t *tracer
}

func (s tracedStore) op(name, key string, start int64) {
	s.t.add(span{Kind: "store", Key: key, Op: name, Start: start, End: s.t.now()})
}

func (s tracedStore) PutJob(rec store.JobRecord) error {
	if !s.t.on() {
		return s.Store.PutJob(rec)
	}
	start := s.t.now()
	err := s.Store.PutJob(rec)
	s.op("put", rec.ID, start)
	return err
}

func (s tracedStore) GetJob(id string) (store.JobRecord, error) {
	if !s.t.on() {
		return s.Store.GetJob(id)
	}
	start := s.t.now()
	rec, err := s.Store.GetJob(id)
	s.op("get", id, start)
	return rec, err
}

func (s tracedStore) DeleteJob(id string) error {
	if !s.t.on() {
		return s.Store.DeleteJob(id)
	}
	start := s.t.now()
	err := s.Store.DeleteJob(id)
	s.op("delete", id, start)
	return err
}

// CheckWritable forwards the health-probe facet of the wrapped store.
func (s tracedStore) CheckWritable() error {
	if c, ok := s.Store.(store.Checker); ok {
		return c.CheckWritable()
	}
	return nil
}

// marketLedger wraps the marketplace transport. It always keeps the
// per-run ledger the run-report check needs: the pay of every bin the
// fault-free marketplace committed, summed per run id in commit order
// (the executor issues a run's bins one at a time, so this is the order
// it sums its own spend in). When tracing it also records a span per
// RPC, keyed by the run id of the Idempotency-Key (= the job id).
type marketLedger struct {
	base http.RoundTripper
	t    *tracer

	mu      sync.Mutex
	charged map[string]float64
	commits uint64
}

func newMarketLedger(base http.RoundTripper, t *tracer) *marketLedger {
	return &marketLedger{base: base, t: t, charged: make(map[string]float64)}
}

func (l *marketLedger) RoundTrip(req *http.Request) (*http.Response, error) {
	run, _, _ := strings.Cut(req.Header.Get("Idempotency-Key"), ":")
	var payload []byte
	if req.Body != nil {
		var err error
		payload, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(payload))
	var start int64
	traced := l.t.on()
	if traced {
		start = l.t.now()
	}
	resp, err := l.base.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK && resp.Header.Get("X-Idempotent-Replay") == "" {
		var bin struct {
			Pay float64 `json:"pay"`
		}
		if err := json.Unmarshal(payload, &bin); err == nil {
			l.mu.Lock()
			l.charged[run] += bin.Pay
			l.commits++
			l.mu.Unlock()
		}
	}
	if traced {
		resp.Body = &spanBody{ReadCloser: resp.Body, t: l.t, s: span{Kind: "platform", Key: run, Start: start}}
	}
	return resp, nil
}

// take returns and forgets the ledger of one run.
func (l *marketLedger) take(run string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.charged[run]
	delete(l.charged, run)
	return c
}

func (l *marketLedger) totalCommits() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commits
}

// peerTransport records a span per peer RPC of the cluster distributor,
// from the request until its reply body is consumed.
type peerTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (p peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !p.t.on() {
		return p.base.RoundTrip(req)
	}
	start := p.t.now()
	resp, err := p.base.RoundTrip(req)
	if err != nil {
		p.t.add(span{Kind: "peer", Op: "error", Start: start, End: p.t.now()})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: p.t, s: span{Kind: "peer", Start: start}}
	return resp, nil
}

// spanBody ends its span when the body is drained or closed, counting
// the bytes read.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	done bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.s.End = b.t.now()
	b.t.add(b.s)
}
