package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
)

// Span is one timed call into a layer of the program, recorded by the
// benchmark around that call. Spans of one campaign or submission share
// Trace; Parent is the span that caused this one. Per-PHV calls are not
// recorded one by one: they are folded into one span per shard whose Dur
// is the summed time of Count calls.
type Span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Trace    int64  `json:"trace"`
	Name     string `json:"name"`
	Job      string `json:"job,omitempty"`
	StartNS  int64  `json:"start_ns"` // since the recorder's epoch
	DurNS    int64  `json:"dur_ns"`
	Count    int64  `json:"count,omitempty"` // PHVs checked, cells decided or folded calls
	Findings int    `json:"findings,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Seed     int64  `json:"seed,omitempty"` // shard traffic seed, for isolated replays
	Hit      bool   `json:"hit,omitempty"`
	Failed   bool   `json:"failed,omitempty"`
}

// Span names, one per layer boundary.
const (
	spanCampaign   = "campaign"     // campaign.Run
	spanBuild      = "build"        // Target.Build
	spanRunner     = "runner_setup" // Instance.NewRunner
	spanShard      = "shard"        // Runner.RunShard
	spanSpec       = "spec"         // sim.StreamSpec.ProcessStream, folded per shard
	spanSubmission = "submission"   // farmd.SubmitOpts
	spanFirstRow   = "first_row"    // submission start to its first streamed row
	spanLease      = "lease"        // lease round trip on the dispatcher's client
	spanWorker     = "worker"       // dfarmd lease handler
	spanStoreGet   = "store.get"    // shared shard store
	spanStorePut   = "store.put"
	spanRemoteGet  = "remote.get" // the worker's remote cache tier
	spanRemotePut  = "remote.put"
)

// Recorder keeps spans in memory; they are written out once, at exit.
// It is safe for concurrent use.
type Recorder struct {
	epoch time.Time
	ids   atomic.Int64
	root  atomic.Int64 // the campaign or submission in progress
	on    atomic.Bool  // fabric runs toggle recording per cycle

	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder {
	r := &Recorder{epoch: time.Now()}
	r.on.Store(true)
	return r
}

func (r *Recorder) newID() int64 { return r.ids.Add(1) }

func (r *Recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records s as a child of parent (0 = the current root), stamping the
// current trace.
func (r *Recorder) add(s Span, parent int64) {
	root := r.root.Load()
	if parent == 0 {
		parent = root
	}
	if s.ID == 0 {
		s.ID = r.newID()
	}
	if s.ID != root {
		s.Parent = parent
	}
	s.Trace = root
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed records a span named name covering start..now.
func (r *Recorder) timed(name string, start time.Time, s Span, parent int64) {
	s.Name = name
	s.StartNS = r.since(start)
	s.DurNS = int64(time.Since(start))
	r.add(s, parent)
}

// beginRoot starts a new campaign or submission; every span recorded
// until the next beginRoot joins its trace.
func (r *Recorder) beginRoot() int64 {
	id := r.newID()
	r.root.Store(id)
	return id
}

// snapshot returns the spans recorded so far.
func (r *Recorder) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// inTraces keeps the spans named name whose trace is in traces.
func inTraces(spans []Span, name string, traces map[int64]bool) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name && traces[s.Trace] {
			out = append(out, s)
		}
	}
	return out
}

// writeTrace writes the provenance and every span as one JSON document.
func writeTrace(path string, prov map[string]string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Provenance map[string]string `json:"provenance"`
		Spans      []Span            `json:"spans"`
	}{prov, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- campaign layer wrappers ---------------------------------------------
//
// The wrappers embed the repo's concrete target types, so the engine
// still finds the optional interfaces they implement (fingerprints, modes,
// shard sizes and the unexported validation hooks) and the report cannot
// change; only Build, NewRunner, RunShard and the spec's ProcessStream are
// intercepted.

// traceJobs returns copies of jobs whose targets record spans into rec.
func traceJobs(jobs []campaign.Job, rec *Recorder) ([]campaign.Job, error) {
	out := make([]campaign.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j
		tt := &tracedTarget{rec: rec, job: j.Name}
		switch t := j.Target.(type) {
		case *campaign.PipelineTarget:
			cp := *t
			inner := cp.NewSpec
			cp.NewSpec = func() (sim.Spec, error) {
				s, err := inner()
				if err != nil {
					return nil, err
				}
				ss, ok := s.(sim.StreamSpec)
				if !ok {
					return nil, fmt.Errorf("spec %s is not a stream spec", s.Name())
				}
				ts := &tracedSpec{StreamSpec: ss}
				tt.pending = ts
				return ts, nil
			}
			out[i].Target = &tracedPipeline{PipelineTarget: &cp, t: tt}
		case *campaign.DRMTTarget:
			out[i].Target = &tracedDRMT{DRMTTarget: t, t: tt}
		case *campaign.VerifyTarget:
			out[i].Target = &tracedVerify{VerifyTarget: t, t: tt}
		default:
			return nil, fmt.Errorf("job %s: untraceable target %T", j.Name, j.Target)
		}
	}
	return out, nil
}

// tracedTarget is the tracing state shared by the three target wrappers.
type tracedTarget struct {
	rec *Recorder
	job string

	// mu serializes NewRunner so the spec the inner runner creates (via
	// the wrapped NewSpec factory, on the same goroutine) is handed to the
	// runner wrapper that owns it.
	mu      sync.Mutex
	pending *tracedSpec
	buildID int64
}

func (t *tracedTarget) build(inner func() (campaign.Instance, error)) (campaign.Instance, error) {
	start := time.Now()
	in, err := inner()
	id := t.rec.newID()
	t.rec.timed(spanBuild, start, Span{ID: id, Job: t.job, Failed: err != nil}, 0)
	if err != nil {
		return nil, err
	}
	t.buildID = id
	return &tracedInstance{inner: in, t: t}, nil
}

type tracedPipeline struct {
	*campaign.PipelineTarget
	t *tracedTarget
}

func (p *tracedPipeline) Build() (campaign.Instance, error) {
	return p.t.build(p.PipelineTarget.Build)
}

type tracedDRMT struct {
	*campaign.DRMTTarget
	t *tracedTarget
}

func (p *tracedDRMT) Build() (campaign.Instance, error) { return p.t.build(p.DRMTTarget.Build) }

type tracedVerify struct {
	*campaign.VerifyTarget
	t *tracedTarget
}

func (p *tracedVerify) Build() (campaign.Instance, error) { return p.t.build(p.VerifyTarget.Build) }

type tracedInstance struct {
	inner campaign.Instance
	t     *tracedTarget
}

func (in *tracedInstance) NewRunner() (campaign.Runner, error) {
	start := time.Now()
	in.t.mu.Lock()
	in.t.pending = nil
	r, err := in.inner.NewRunner()
	spec := in.t.pending
	in.t.mu.Unlock()
	id := in.t.rec.newID()
	in.t.rec.timed(spanRunner, start, Span{ID: id, Job: in.t.job, Failed: err != nil}, in.t.buildID)
	if err != nil {
		return nil, err
	}
	return &tracedRunner{inner: r, spec: spec, t: in.t, setupID: id}, nil
}

// tracedRunner implements campaign.ContextRunner so context-aware inner
// runners (proof cells) still receive the engine's context. It does not
// forward campaign.BatchSizer: the benchmark's campaigns stream (the
// dfarm default), so the engine never sets a batch size.
type tracedRunner struct {
	inner   campaign.Runner
	spec    *tracedSpec // nil for dRMT and verify runners
	t       *tracedTarget
	setupID int64
}

func (r *tracedRunner) RunShard(seed int64, n int) campaign.ShardResult {
	return r.RunShardContext(context.Background(), seed, n)
}

func (r *tracedRunner) RunShardContext(ctx context.Context, seed int64, n int) campaign.ShardResult {
	if r.spec != nil {
		r.spec.ns, r.spec.calls = 0, 0
	}
	start := time.Now()
	var res campaign.ShardResult
	if cr, ok := r.inner.(campaign.ContextRunner); ok {
		res = cr.RunShardContext(ctx, seed, n)
	} else {
		res = r.inner.RunShard(seed, n)
	}
	id := r.t.rec.newID()
	count := int64(res.Checked)
	if len(res.Cells) > 0 {
		count = int64(len(res.Cells))
	}
	r.t.rec.timed(spanShard, start, Span{ID: id, Job: r.t.job, Count: count, Findings: len(res.Findings), Seed: seed, Failed: res.Err != nil}, r.setupID)
	if r.spec != nil {
		r.t.rec.add(Span{Name: spanSpec, Job: r.t.job, StartNS: r.t.rec.since(start), DurNS: r.spec.ns, Count: r.spec.calls}, id)
	}
	return res
}

// tracedSpec times each ProcessStream call and sums the time per shard;
// a runner and its spec run on one goroutine, so the sums need no lock.
type tracedSpec struct {
	sim.StreamSpec
	ns, calls int64
}

func (s *tracedSpec) ProcessStream(vals []phv.Value) error {
	start := time.Now()
	err := s.StreamSpec.ProcessStream(vals)
	s.ns += int64(time.Since(start))
	s.calls++
	return err
}

// --- fabric layer wrappers -----------------------------------------------

// spanHeader carries a lease span's ID to the worker wrapper, joining the
// two sides of a lease. The worker ignores the header.
const spanHeader = "X-Campaignbench-Span"

// leaseTransport times lease round trips on the dispatcher's client, from
// the request to the last byte of the response body.
type leaseTransport struct {
	base http.RoundTripper
	rec  *Recorder
}

func (t *leaseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	id := t.rec.newID()
	start := time.Now()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.timed(spanLease, start, Span{ID: id, Failed: true}, 0)
		return nil, err
	}
	sent := req.ContentLength
	failed := resp.StatusCode != http.StatusOK
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(read int64) {
		t.rec.timed(spanLease, start, Span{ID: id, Bytes: sent + read, Failed: failed}, 0)
	}}
	return resp, nil
}

// countingBody counts response bytes and reports once, at EOF or Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(read int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// workerHandler times the worker's lease handler.
type workerHandler struct {
	inner http.Handler
	rec   *Recorder
}

func (h *workerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() || r.URL.Path != "/v1/leases" {
		h.inner.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	h.rec.timed(spanWorker, start, Span{}, parent)
}

// tracedCache times Get and Put on a shard cache tier.
type tracedCache struct {
	inner    campaign.ShardCache
	rec      *Recorder
	get, put string // span names
}

func (c *tracedCache) Get(key string) (*campaign.ShardResult, bool) {
	if !c.rec.on.Load() {
		return c.inner.Get(key)
	}
	start := time.Now()
	res, ok := c.inner.Get(key)
	c.rec.timed(c.get, start, Span{Hit: ok}, 0)
	return res, ok
}

func (c *tracedCache) Put(key string, res *campaign.ShardResult) {
	if !c.rec.on.Load() {
		c.inner.Put(key, res)
		return
	}
	start := time.Now()
	c.inner.Put(key, res)
	c.rec.timed(c.put, start, Span{}, 0)
}
