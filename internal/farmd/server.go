package farmd

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/drmt"
	"druzhba/internal/obs"
	"druzhba/internal/spec"
)

// defaultRowWriteTimeout bounds each NDJSON row write when Config does not
// set one: a client that stalls its stream longer than this has its
// campaign cancelled rather than wedging the engine's workers and holding
// an execution slot.
const defaultRowWriteTimeout = 30 * time.Second

// Config configures a campaign server.
type Config struct {
	// Cache is the shard-result store shared by every campaign the
	// server runs (nil = no caching).
	Cache campaign.ShardCache

	// Workers is each campaign's worker pool size (0 = GOMAXPROCS).
	Workers int

	// BatchSize is the default PHV-batch size applied when a request does
	// not set one (0 = streaming). It applies to optimized RMT pipelines;
	// dRMT and unoptimized RMT always stream. An execution knob only:
	// results and cache keys are byte-identical for every value.
	BatchSize int

	// MaxConcurrent bounds how many campaigns execute at once (0 = 2);
	// excess submissions queue until a slot frees or the client leaves.
	MaxConcurrent int

	// JobTimeout is the default per-job wall-clock budget applied when a
	// request does not set one (0 = unbounded).
	JobTimeout time.Duration

	// RowWriteTimeout bounds each NDJSON row write; a client that stalls
	// its stream longer than this has its campaign cancelled. 0 means 30s;
	// negative disables the bound.
	RowWriteTimeout time.Duration

	// AuthToken, when non-empty, is the shared fleet secret: every
	// mutating endpoint (campaign submission, shard leases) requires
	// "Authorization: Bearer <AuthToken>". Read-only probes (/healthz,
	// /v1/benchmarks, /v1/stats) stay open for load balancers and
	// monitoring.
	AuthToken string

	// Metrics is the registry GET /metrics serves; the server registers
	// its lease and campaign instruments on it (nil = a fresh private
	// registry, so /metrics always works). Observability only: metrics
	// never feed results.
	Metrics *obs.Registry

	// Trace journals campaign/lease lifecycle events as NDJSON (nil =
	// no tracing).
	Trace *obs.Tracer

	// Now is the server's clock seam for lease-duration observations;
	// nil means time.Now. Timing read through it only ever feeds
	// metrics, never results.
	Now func() time.Time

	// RemoteCounts, when non-nil, reports the remote cache tier's
	// cumulative hit/miss counts for /v1/stats (dfarmd wires the
	// instrumented remote tier's Counts here).
	RemoteCounts func() (hits, misses int64)
}

// rowTimeout resolves the configured row-write deadline.
func (c *Config) rowTimeout() time.Duration {
	switch {
	case c.RowWriteTimeout == 0:
		return defaultRowWriteTimeout
	case c.RowWriteTimeout < 0:
		return 0
	default:
		return c.RowWriteTimeout
	}
}

// Stats is the server's cumulative serving state, exposed on /v1/stats.
// LeaseErrors and the remote-cache pair are additive extensions — existing
// consumers of the original counters are unaffected.
type Stats struct {
	Campaigns   int64 `json:"campaigns"`    // campaigns completed
	Jobs        int64 `json:"jobs"`         // job rows streamed
	Leases      int64 `json:"leases"`       // shard leases executed
	CacheHits   int64 `json:"cache_hits"`   // shards replayed from cache
	CacheMisses int64 `json:"cache_misses"` // shards executed with caching on

	LeaseErrors  int64 `json:"lease_errors"`        // leases whose shard errored
	RemoteHits   int64 `json:"remote_cache_hits"`   // remote-tier cache hits
	RemoteMisses int64 `json:"remote_cache_misses"` // remote-tier cache misses
}

// Server is the dfarmd HTTP service: POST /v1/campaigns streams campaign
// rows as NDJSON, POST /v1/leases executes one shard lease for a fabric
// coordinator, GET /v1/benchmarks lists the embedded benchmark registries,
// GET /v1/stats reports cumulative serving counters and GET /healthz
// answers liveness probes.
type Server struct {
	cfg       Config
	sem       chan struct{}
	leaseSem  chan struct{}
	mux       *http.ServeMux
	instances *instanceCache
	stats     Stats // updated atomically

	// Observability: cm instruments engine runs; the rest are the
	// server's own lease/campaign counters on cfg.Metrics.
	cm                    *campaign.Metrics
	mCampaigns, mJobs     *obs.Counter
	mLeases, mLeaseErrors *obs.Counter
	mLeaseSeconds         *obs.Histogram
}

// NewServer builds a campaign server over cfg.
func NewServer(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	leaseSlots := cfg.Workers
	if leaseSlots <= 0 {
		leaseSlots = runtime.GOMAXPROCS(0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now //dvet:walltime-ok the one approved default for the server's clock seam
	}
	s := &Server{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		leaseSem:  make(chan struct{}, leaseSlots),
		mux:       http.NewServeMux(),
		instances: newInstanceCache(16),

		cm:            campaign.NewMetrics(cfg.Metrics),
		mCampaigns:    cfg.Metrics.Counter("druzhba_farmd_campaigns_total", "campaigns run to completion"),
		mJobs:         cfg.Metrics.Counter("druzhba_farmd_jobs_total", "job rows streamed"),
		mLeases:       cfg.Metrics.Counter("druzhba_farmd_leases_total", "shard leases executed"),
		mLeaseErrors:  cfg.Metrics.Counter("druzhba_farmd_lease_errors_total", "leases whose shard errored"),
		mLeaseSeconds: cfg.Metrics.Histogram("druzhba_farmd_lease_seconds", "shard lease service time, cache probe included", nil),
	}
	s.mux.HandleFunc("POST /v1/campaigns", s.auth(s.handleCampaigns))
	s.mux.HandleFunc("POST /v1/leases", s.auth(s.handleLease))
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.Handle("GET /metrics", cfg.Metrics.Handler())
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// auth gates a mutating handler behind the shared fleet secret; with no
// token configured it is a no-op.
func (s *Server) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !CheckBearer(r, s.cfg.AuthToken) {
			httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		next(w, r)
	}
}

// CheckBearer reports whether the request carries "Authorization: Bearer
// <token>". An empty token disables the check. The comparison is constant
// time, so a fleet secret cannot be recovered byte-by-byte through timing.
func CheckBearer(r *http.Request, token string) bool {
	if token == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1
}

// Stats returns a snapshot of the cumulative serving counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Campaigns:   atomic.LoadInt64(&s.stats.Campaigns),
		Jobs:        atomic.LoadInt64(&s.stats.Jobs),
		Leases:      atomic.LoadInt64(&s.stats.Leases),
		CacheHits:   atomic.LoadInt64(&s.stats.CacheHits),
		CacheMisses: atomic.LoadInt64(&s.stats.CacheMisses),
		LeaseErrors: atomic.LoadInt64(&s.stats.LeaseErrors),
	}
	if s.cfg.RemoteCounts != nil {
		st.RemoteHits, st.RemoteMisses = s.cfg.RemoteCounts()
	}
	return st
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck // terminal write
}

// handleCampaigns expands the submitted matrix, runs it on the campaign
// engine and streams rows. Job-matrix errors surface as HTTP 4xx before
// the stream opens; once the first byte is written the stream terminates
// with either a summary row or an error row.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	// A matrix request is a few KB of JSON; bound the body so one
	// oversized submission cannot exhaust the daemon's memory.
	var req MatrixRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad matrix request: %v", err)
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Queue for an execution slot; a client that disconnects while
	// queued never starts its campaign.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		return
	}

	timeout := req.JobTimeout()
	if timeout <= 0 {
		timeout = s.cfg.JobTimeout
	}

	// The stream owns the connection from here on: rows are flushed as
	// jobs complete, and a client disconnect cancels the campaign via
	// the request context.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	rowTimeout := s.cfg.rowTimeout()
	writeRow := func(row Row) {
		// A bounded write deadline per row: a client that stops reading
		// its stream fails the write instead of blocking the emitter —
		// and with it every campaign worker — indefinitely. Best effort:
		// an unsupported controller falls back to unbounded writes.
		if rowTimeout > 0 {
			//dvet:walltime-ok I/O write deadline for a stalled client, never report content
			rc.SetWriteDeadline(time.Now().Add(rowTimeout)) //nolint:errcheck // best effort
		}
		if err := enc.Encode(row); err != nil {
			cancel()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	batch := req.Batch
	if batch <= 0 {
		batch = s.cfg.BatchSize
	}
	opts := campaign.Options{
		Workers:            s.cfg.Workers,
		ShardSize:          req.ShardSize,
		BatchSize:          batch,
		MaxCounterexamples: req.MaxCounterexamples,
		FailFast:           req.FailFast,
		JobTimeout:         timeout,
		Cache:              s.cfg.Cache,
		Metrics:            s.cm,
		Trace:              s.cfg.Trace,
		Now:                s.cfg.Now,
		OnJobReport: func(jr campaign.JobReport) {
			atomic.AddInt64(&s.stats.Jobs, 1)
			s.mJobs.Inc()
			writeRow(Row{Job: &jr})
		},
	}
	rep, runErr := RunMatrix(ctx, &req, opts)
	if rep == nil {
		writeRow(Row{Error: runErr.Error()})
		return
	}
	atomic.AddInt64(&s.stats.Campaigns, 1)
	s.mCampaigns.Inc()
	if rep.Cache != nil {
		atomic.AddInt64(&s.stats.CacheHits, rep.Cache.Hits)
		atomic.AddInt64(&s.stats.CacheMisses, rep.Cache.Misses)
	}
	writeRow(Row{Summary: &Summary{
		Passed:       rep.Passed,
		Jobs:         len(rep.Jobs),
		TotalChecked: rep.TotalChecked,
		StoppedEarly: rep.StoppedEarly,
		Cache:        rep.Cache,
		Timing:       rep.Timing,
	}})
}

// handleLease executes one shard lease and answers with its wire result.
// The status code is the dispatch protocol: 200 carries a result (possibly
// an application failure in its Error field — the shard ran and failed
// deterministically), 4xx means the lease itself is unusable on this
// worker (bad body, protocol skew, job not in the matrix), and a transport
// failure with no status at all is what the coordinator reads as worker
// death. Results are cached under the coordinator-issued key — the worker
// never recomputes keys, because cache keys are salted per binary and a
// worker-computed key would land in a different key space than the
// coordinator's.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var lease ShardLease
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&lease); err != nil {
		httpError(w, http.StatusBadRequest, "bad shard lease: %v", err)
		return
	}
	if lease.Proto != LeaseProto {
		httpError(w, http.StatusConflict, "lease protocol %d, worker speaks %d", lease.Proto, LeaseProto)
		return
	}
	if lease.Request == nil {
		httpError(w, http.StatusBadRequest, "lease has no matrix request")
		return
	}
	if lease.N < 1 {
		httpError(w, http.StatusBadRequest, "lease asks for %d packets", lease.N)
		return
	}

	// Bound concurrent lease execution by the worker pool size so a
	// coordinator fanning out cannot oversubscribe the host.
	select {
	case s.leaseSem <- struct{}{}:
		defer func() { <-s.leaseSem }()
	case <-r.Context().Done():
		return
	}

	start := s.cfg.Now()
	writeResult := func(res *campaign.ShardResult) {
		atomic.AddInt64(&s.stats.Leases, 1)
		s.mLeases.Inc()
		durSec := s.cfg.Now().Sub(start).Seconds()
		s.mLeaseSeconds.Observe(durSec)
		errored := res != nil && res.Err != nil
		if errored {
			atomic.AddInt64(&s.stats.LeaseErrors, 1)
			s.mLeaseErrors.Inc()
		}
		s.cfg.Trace.Event("lease", "served",
			obs.KV{K: "key", V: lease.Key},
			obs.KV{K: "n", V: lease.N},
			obs.KV{K: "errored", V: errored},
			obs.KV{K: "dur_us", V: int64(durSec * 1e6)})
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(WireResult(res)) //nolint:errcheck // terminal write
	}

	// The local cache stack (memory, disk, and — when the daemon points
	// back at a coordinator — the shared remote tier) may already hold
	// this shard from an earlier lease or a previous campaign.
	if s.cfg.Cache != nil && lease.Key != "" {
		if res, ok := s.cfg.Cache.Get(lease.Key); ok {
			atomic.AddInt64(&s.stats.CacheHits, 1)
			writeResult(res)
			return
		}
		atomic.AddInt64(&s.stats.CacheMisses, 1)
	}

	ent, err := s.instances.get(&lease)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	runner, err := ent.runner()
	if err != nil {
		writeResult(&campaign.ShardResult{Err: err})
		return
	}
	// Apply the batch strategy per lease. The lease key hashes the matrix
	// request (Batch included), so pooled runners for one key have all seen
	// the same batch size; results are byte-identical either way.
	if bs, ok := runner.(campaign.BatchSizer); ok {
		batch := lease.Request.Batch
		if batch <= 0 {
			batch = s.cfg.BatchSize
		}
		if batch > 0 {
			bs.SetBatchSize(batch)
		}
	}
	var res campaign.ShardResult
	if cr, ok := runner.(campaign.ContextRunner); ok {
		res = cr.RunShardContext(r.Context(), lease.Seed, lease.N)
	} else {
		res = runner.RunShard(lease.Seed, lease.N)
	}
	if res.Err == nil {
		// Reuse only runners whose shard completed cleanly; a runner that
		// just errored (or was cancelled mid-proof) is dropped so its
		// state cannot leak into the next lease.
		ent.release(runner)
		if s.cfg.Cache != nil && lease.Key != "" {
			s.cfg.Cache.Put(lease.Key, &res)
		}
	}
	if r.Context().Err() != nil {
		// The coordinator gave up on this lease (deadline, campaign
		// abort); the connection is dead, so skip the write the
		// dispatcher will never read. A cancelled context-aware run
		// carried ctx.Err() as its result error, so it was not cached
		// above either.
		return
	}
	writeResult(&res)
}

// handleBenchmarks lists the embedded benchmark registries by architecture.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]string{ //nolint:errcheck // terminal write
		"rmt":  spec.Names(),
		"drmt": drmt.BenchmarkNames(),
	})
}

// handleStats reports the cumulative serving counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats()) //nolint:errcheck // terminal write
}

// Serve runs a campaign server on addr until ctx is cancelled, then shuts
// down gracefully: in-flight streams get drain to finish, and the disk
// cache tier (when the cache implements Flusher) is flushed before the
// process exits. drain <= 0 means 5s.
func Serve(ctx context.Context, addr string, cfg Config, drain time.Duration) error {
	var flush func() error
	if f, ok := cfg.Cache.(Flusher); ok {
		flush = f.Flush
	}
	return ListenAndServe(ctx, addr, NewServer(cfg), drain, flush)
}

// ListenAndServe runs h on addr until ctx is cancelled — the caller wires
// ctx to SIGINT/SIGTERM — then shuts down gracefully: the listener closes
// immediately (no new campaigns), in-flight streams get drain to finish
// (then the server hard-closes), and flush, when non-nil, runs before
// return so buffered state (the disk cache tier) survives the restart.
// Both dfarmd and dcoord serve through this helper so the fleet shares one
// shutdown discipline.
func ListenAndServe(ctx context.Context, addr string, h http.Handler, drain time.Duration, flush func() error) error {
	if drain <= 0 {
		drain = 5 * time.Second
	}
	srv := &http.Server{Addr: addr, Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	var err error
	select {
	case err = <-errCh:
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		if serr := srv.Shutdown(shutdownCtx); serr != nil {
			srv.Close()
		}
		cancel()
		if err = <-errCh; errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
	}
	if flush != nil {
		if ferr := flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}
