package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/testcluster"
	"repro/internal/platform"
	"repro/internal/platform/testplatform"
	"repro/internal/service"
	"repro/internal/store"
)

// sladedConfig is the service configuration cmd/sladed builds from its
// flag defaults: a 2 ms batch window, peer retries 1, and zero for every
// other knob, which the service resolves to the same defaults the flags
// document (128-entry cache, NumCPU workers, 10 s cluster and platform
// timeouts, cluster.DefaultMinSpanBlocks). Request logs go through a
// text handler into io.Discard, so their formatting cost is measured.
func sladedConfig() service.Config {
	return service.Config{
		BatchWindow: service.DefaultBatchWindow,
		PeerRetries: 1,
		Slog:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// resolvedConfig is the effective configuration every service of a run
// used, written into the result file.
type resolvedConfig struct {
	CacheSize               int     `json:"cache_size"`
	Workers                 int     `json:"workers"`
	BatchWindowMS           float64 `json:"batch_window_ms"`
	BatchMaxRequests        int     `json:"batch_max_requests"`
	PeerRetries             int     `json:"peer_retries"`
	ClusterTimeoutS         float64 `json:"cluster_timeout_s"`
	ClusterMinSpanBlocks    int     `json:"cluster_min_span_blocks"`
	ClusterFailureThreshold int     `json:"cluster_failure_threshold"`
	ClusterCooldownS        float64 `json:"cluster_cooldown_s"`
	PlatformTimeoutS        float64 `json:"platform_timeout_s"`
	PlatformRetryBudget     int     `json:"platform_retry_budget"`
	PlatformRPS             string  `json:"platform_rps"`
	SSEHeartbeatS           float64 `json:"sse_heartbeat_s"`
	RequestLog              string  `json:"request_log"`
	Clients                 int     `json:"clients"`
	ClusterNodes            int     `json:"cluster_nodes,omitempty"`
	Store                   string  `json:"store,omitempty"`
	Marketplace             string  `json:"marketplace,omitempty"`
}

// resolve reads the effective values back from the running services
// where they report them, and from the documented defaults otherwise.
func (s *system) resolve(w workload) resolvedConfig {
	st := s.svcs[0].Stats()
	cfg := sladedConfig()
	rc := resolvedConfig{
		CacheSize:               service.DefaultCacheSize,
		Workers:                 st.Workers,
		BatchWindowMS:           st.Batch.WindowMS,
		BatchMaxRequests:        st.Batch.MaxRequests,
		PeerRetries:             cfg.PeerRetries,
		ClusterTimeoutS:         cluster.DefaultTimeout.Seconds(),
		ClusterMinSpanBlocks:    cluster.DefaultMinSpanBlocks,
		ClusterFailureThreshold: cluster.DefaultFailureThreshold,
		ClusterCooldownS:        cluster.DefaultCooldown.Seconds(),
		PlatformTimeoutS:        platform.DefaultTimeout.Seconds(),
		PlatformRetryBudget:     platform.DefaultRetryBudget,
		PlatformRPS:             "unlimited",
		SSEHeartbeatS:           service.DefaultSSEHeartbeat.Seconds(),
		RequestLog:              "slog text handler into io.Discard",
		Clients:                 numClients,
	}
	switch w.name {
	case "run-jobs":
		rc.Store = "store.FS in a temporary data dir"
		rc.Marketplace = "testplatform, fault-free, behind PlatformURL"
	case "cluster-fanout":
		rc.ClusterNodes = len(s.svcs)
	}
	return rc
}

// system is one booted instance of a workload's services plus the
// clients that drive it.
type system struct {
	base string
	// svcs lists every service; svcs[0] receives the client traffic.
	svcs []*service.Service
	// batched indexes the services whose solve path runs through the
	// batcher (on the cluster, the peers: the entry routes to the
	// cluster solver).
	batched []int
	market  *testplatform.Server
	ledger  *marketLedger
	clients []*client
	closers []func()
	// completed counts verified requests, for per-window throughput.
	completed atomic.Int64
}

func (s *system) close() {
	for _, c := range s.clients {
		c.close()
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// serve runs h on a loopback listener the way cmd/sladed does.
func (s *system) serve(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	}()
	s.base = "http://" + ln.Addr().String()
	s.closers = append(s.closers, func() {
		srv.Close() //nolint:errcheck // closing a server we own
		<-done
	})
	return nil
}

// boot starts the workload's services. A nil tracer builds exactly what
// cmd/sladed would; a tracer adds the recording wrappers at each seam.
func boot(w workload, seed int64, dataDir string, t *tracer) (*system, error) {
	s := &system{}
	handler := func(h http.Handler) http.Handler {
		if t != nil {
			return t.handler(h)
		}
		return h
	}
	switch w.name {
	case "run-jobs":
		st, err := store.OpenFS(dataDir, log.New(io.Discard, "", 0))
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		s.closers = append(s.closers, func() {
			st.Close() //nolint:errcheck // FS.Close releases nothing
			os.RemoveAll(dataDir)
		})
		market, err := testplatform.New(testplatform.Options{Seed: seed})
		if err != nil {
			st.Close()
			return nil, err
		}
		s.market = market
		s.closers = append(s.closers, market.Close)
		s.ledger = newMarketLedger(http.DefaultTransport, t)
		cfg := sladedConfig()
		cfg.Store = st
		if t != nil {
			cfg.Store = tracedStore{Store: st, t: t}
		}
		cfg.PlatformURL = market.URL()
		cfg.PlatformTransport = s.ledger
		s.addService(service.New(cfg))
		s.batched = []int{0}
	case "cluster-fanout":
		tc, err := testcluster.Start(testcluster.Options{
			Nodes: 3,
			Seed:  seed,
			// Replace the harness's test tuning (tiny spans, 2 s
			// timeouts, fault-injecting transport) with the daemon's.
			Configure: func(_ int, cfg *service.Config) {
				peers, self := cfg.Peers, cfg.ClusterSelf
				*cfg = sladedConfig()
				cfg.Peers, cfg.ClusterSelf = peers, self
				if t != nil {
					cfg.ClusterTransport = peerTransport{base: http.DefaultTransport, t: t}
				}
			},
		})
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, tc.Close)
		for _, n := range tc.Nodes {
			s.svcs = append(s.svcs, n.Service)
		}
		for i := 1; i < len(s.svcs); i++ {
			s.batched = append(s.batched, i)
		}
	default:
		s.addService(service.New(sladedConfig()))
		s.batched = []int{0}
	}
	if err := s.serve(handler(service.NewHandler(s.svcs[0]))); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < numClients; i++ {
		s.clients = append(s.clients, newClient(i, s.base))
	}
	return s, nil
}

// checkLedger ties the per-run ledger to the marketplace's own books:
// every bin the marketplace committed passed through the ledger once, and
// none was served as an idempotent replay.
func (s *system) checkLedger() error {
	if s.market == nil {
		return nil
	}
	if c, l := s.market.Commits(), s.ledger.totalCommits(); c != l {
		return wrongf("marketplace committed %d bins, the ledger saw %d", c, l)
	}
	if r := s.market.Replays(); r != 0 {
		return wrongf("marketplace replayed %d bins on a fault-free run", r)
	}
	return nil
}

func (s *system) addService(svc *service.Service) {
	s.svcs = append(s.svcs, svc)
	s.closers = append(s.closers, func() {
		svc.Close() //nolint:errcheck // always nil
	})
}

// warm readies a booted system: one request per hot key so every cache
// the timed phase expects to hit holds its queue, then the workload's
// warm-up sequence.
func (s *system) warm(ctx context.Context, w workload, ms []loadedMenu, reqs []request) error {
	if w.name != "menu-churn" {
		// On the cluster the key warm-up must be large enough to fan
		// spans out, so the peers build the queue too.
		n := 1000
		if w.name == "cluster-fanout" {
			n = 20000
		}
		var keys []request
		for m := range ms {
			for _, t := range hotThresholds {
				keys = append(keys, request{kind: kindDecompose, path: "/v1/decompose",
					body: decomposeBody(ms[m].json, n, t, false)})
			}
		}
		for _, r := range keys {
			if _, err := s.clients[0].warmup(ctx, &r); err != nil {
				return fmt.Errorf("warm key: %w", err)
			}
		}
	}
	res := s.drive(ctx, reqs, len(reqs), time.Time{}, nil)
	if res.failed+res.wrong > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", res.failed+res.wrong, res.attempted, res.firstErr)
	}
	return nil
}

// setup boots and warms the workload `rounds` times, tearing down all
// but the last system, and returns the kept one with each round's
// set-up time.
func setup(ctx context.Context, w workload, seed int64, ms []loadedMenu, reqs []request, rounds int, t *tracer) (*system, []float64, error) {
	var times []float64
	for k := 0; k < rounds; k++ {
		dir := filepath.Join(tmpDir, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), k))
		runtime.GC()
		start := time.Now()
		s, err := boot(w, seed, dir, t)
		if err == nil {
			if err = s.warm(ctx, w, ms, reqs); err != nil {
				s.close()
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if k < rounds-1 {
			s.close()
			continue
		}
		return s, times, nil
	}
	return nil, nil, errors.New("set-up: no rounds")
}
