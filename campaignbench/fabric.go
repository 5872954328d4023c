package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/drmt"
	"druzhba/internal/fabric"
	"druzhba/internal/farmd"
	"druzhba/internal/spec"
)

// fabricPackets sizes the fabric requests: a small compiled-level matrix
// over both architectures, one default-sized (4096-PHV) shard and so one
// lease per job, 16 leases per fresh submission. Small requests are what
// make leasing, HTTP/JSON and the store outweigh execution; every other
// request field is left at the program's default.
const fabricPackets = 4096

// fabricRequests is cycle k of the fabric workload. The first request
// has a fresh traffic seed, so all its shards miss the store and are
// leased, executed and stored. The two resubmissions after it overlap
// earlier requests and are read back from the store: a single-benchmark
// subset of the fresh matrix, and the fresh matrix together with the
// previous cycle's (cycle 0 has no previous one and takes a second
// subset instead). Each differs in content, and so in campaign ID, from
// every earlier request, so the coordinator runs it rather than replaying
// a journal.
func fabricRequests(seed int64, cycle int) []*farmd.MatrixRequest {
	cycleSeed := func(k int) int64 { return seed*1_000_003 + int64(k) }
	fresh := &farmd.MatrixRequest{
		Arch:    "all",
		Levels:  []string{"compiled"},
		Seeds:   []int64{cycleSeed(cycle)},
		Packets: fabricPackets,
	}
	var names []string
	for _, b := range spec.All() {
		names = append(names, b.Name)
	}
	for _, b := range drmt.Benchmarks() {
		names = append(names, b.Name)
	}
	pick := rand.New(rand.NewSource(cycleSeed(cycle))).Perm(len(names))
	subset := *fresh
	subset.Run = names[pick[0]]
	union := *fresh
	if cycle > 0 {
		union.Seeds = []int64{cycleSeed(cycle - 1), cycleSeed(cycle)}
	} else {
		union.Run = names[pick[1]]
	}
	return []*farmd.MatrixRequest{fresh, &subset, &union}
}

// fabricEnv is an in-process dcoord with one dfarmd worker, both serving
// HTTP on loopback.
type fabricEnv struct {
	coord   *fabric.Coordinator
	url     string
	servers []*http.Server
	stop    context.CancelFunc
	wg      sync.WaitGroup
	client  *http.Client // the benchmark's one closed-loop client
}

// startFabric starts the coordinator and the worker and registers the
// worker. A non-nil rec installs the tracing wrappers.
func startFabric(workers int, rec *Recorder) (*fabricEnv, error) {
	env := &fabricEnv{client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	var store campaign.ShardCache = farmd.NewMemCache(1 << 16)
	var leaseRT http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: workers}
	if rec != nil {
		store = &tracedCache{inner: store, rec: rec, get: spanStoreGet, put: spanStorePut}
		leaseRT = &leaseTransport{base: leaseRT, rec: rec}
	}
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Cache:    store,
		Workers:  workers,
		Dispatch: fabric.DispatchConfig{Client: &http.Client{Transport: leaseRT}},
	})
	if err != nil {
		return nil, err
	}
	env.coord = coord
	env.url, err = env.serve(coord)
	if err != nil {
		env.close()
		return nil, err
	}

	var remote campaign.ShardCache = farmd.NewRemoteCache(env.url, "", nil)
	if rec != nil {
		remote = &tracedCache{inner: remote, rec: rec, get: spanRemoteGet, put: spanRemotePut}
	}
	var worker http.Handler = farmd.NewServer(farmd.Config{
		Workers: workers,
		Cache:   farmd.NewTiered(farmd.NewMemCache(1<<16), remote),
	})
	if rec != nil {
		worker = &workerHandler{inner: worker, rec: rec}
	}
	workerURL, err := env.serve(worker)
	if err != nil {
		env.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	env.stop = cancel
	if err := fabric.RegisterWorker(ctx, env.url, workerURL, "", nil); err != nil {
		env.close()
		return nil, fmt.Errorf("register worker: %w", err)
	}
	// Keep the worker alive in the registry past the coordinator's TTL,
	// as dfarmd -coord does.
	env.wg.Add(1)
	go func() {
		defer env.wg.Done()
		fabric.Heartbeat(ctx, env.url, workerURL, "", time.Second, nil)
	}()
	return env, nil
}

func (env *fabricEnv) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	env.servers = append(env.servers, srv)
	env.wg.Add(1)
	go func() {
		defer env.wg.Done()
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the heartbeat, both servers and the coordinator, and waits
// for every goroutine it started.
func (env *fabricEnv) close() {
	if env.stop != nil {
		env.stop()
	}
	for _, srv := range env.servers {
		srv.Close() //nolint:errcheck // in-process loopback servers, nothing to flush
	}
	if env.coord != nil {
		env.coord.Close()
	}
	env.client.CloseIdleConnections()
	env.wg.Wait()
}

// submission is one closed-loop request and what the client saw.
type submission struct {
	req      *farmd.MatrixRequest
	fresh    bool
	traced   bool
	trace    int64
	wall     float64
	firstRow float64
	checked  int64
	digest   [sha256.Size]byte            // of the report's deterministic rendering
	rows     map[string][sha256.Size]byte // job name -> digest of its row
	rowsOK   bool                         // every row passed and the summary reports no early stop
}

func (env *fabricEnv) submit(ctx context.Context, req *farmd.MatrixRequest, rec *Recorder) (submission, error) {
	sub := submission{req: req, firstRow: -1}
	if rec != nil && rec.on.Load() {
		sub.traced = true
		sub.trace = rec.beginRoot()
	}
	start := time.Now()
	rep, err := farmd.SubmitOpts(ctx, env.url, req, farmd.StreamOptions{Client: env.client}, func(farmd.Row) error {
		if sub.firstRow < 0 {
			sub.firstRow = time.Since(start).Seconds()
			if sub.traced {
				rec.timed(spanFirstRow, start, Span{}, 0)
			}
		}
		return nil
	})
	sub.wall = time.Since(start).Seconds()
	if sub.traced {
		rec.add(Span{ID: sub.trace, Name: spanSubmission, StartNS: rec.since(start), DurNS: int64(sub.wall * 1e9)}, 0)
	}
	if err != nil {
		return sub, err
	}
	if rep == nil {
		return sub, errors.New("submission returned no report")
	}
	sub.checked = rep.TotalChecked
	sub.rowsOK = rep.Passed && !rep.StoppedEarly
	got, err := render(rep)
	sub.digest = got.digest()
	sub.rows = map[string][sha256.Size]byte{}
	for name, row := range got.rows {
		sub.rows[name] = sha256.Sum256([]byte(row))
	}
	return sub, err
}

// runFabric runs the fabric workload: set-up (both daemons started, the
// worker registered and the first cycle's targets built, until
// setupDone), then closed-loop cycles of one fresh and two overlapping
// submissions until seconds have passed, then the check of every report
// against an offline single-worker run of the same request. A traced run
// records every other cycle, so the tracing overhead is measured within
// the run.
func runFabric(ctx context.Context, seed int64, seconds float64, trace bool, workers int) (*outcome, error) {
	var rec *Recorder
	if trace {
		rec = newRecorder()
		rec.on.Store(false)
	}
	var setups []float64
	var env *fabricEnv
	for !setupDone(setups) {
		if env != nil {
			env.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if env, err = startFabric(workers, rec); err != nil {
			return nil, err
		}
		for _, req := range fabricRequests(seed, 0) {
			if err := buildRequest(req); err != nil {
				env.close()
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var subs []submission
	cycles := 0
	start := time.Now()
	for ; cycles == 0 || time.Since(start).Seconds() < seconds || (trace && cycles < 2); cycles++ {
		if trace {
			rec.on.Store(cycles%2 == 1)
		}
		for i, req := range fabricRequests(seed, cycles) {
			sub, err := env.submit(ctx, req, rec)
			if err != nil {
				env.close()
				return nil, err
			}
			sub.fresh = i == 0
			subs = append(subs, sub)
		}
	}
	dstats := env.coord.Dispatcher().Stats()
	env.close()

	o := newOutcome()
	if err := checkFabric(ctx, o, subs, workers); err != nil {
		return nil, err
	}
	if dstats.Retries+dstats.Poisoned+dstats.Fallback > 0 {
		o.correct = false
		o.note("fabric did not run cleanly: %d retries, %d poisoned, %d local fallbacks", dstats.Retries, dstats.Poisoned, dstats.Fallback)
	}

	var untraced, traced []submission
	for _, s := range subs {
		if s.traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	walls := pick(untraced, func(s submission) float64 { return s.wall })
	tail := tailOf(walls)
	o.e2e["setup_s"] = median(setups)
	o.e2e["checked_per_s"] = freshRate(untraced)
	o.e2e["campaign_s.p50"] = median(walls)
	o.e2e["campaign_s.tail"] = tail.Value
	o.e2e["first_row_s.p50"] = median(pick(untraced, func(s submission) float64 { return s.firstRow }))
	o.note("checked_per_s is the median over fresh submissions, whose PHVs are all executed through leases; %d cycles of 1 fresh + 2 resubmissions, %d submissions untraced",
		cycles, len(untraced))
	o.note("campaign_s.tail is the %s", tail)
	if trace {
		o.spans = rec.snapshot()
		fabricLayers(o, traced, untraced)
	}
	return o, nil
}

// checkFabric compares every submission with offline single-worker runs.
// A fresh submission must render byte-identically to the offline run of
// its request. A resubmission's rows are rows of earlier fresh requests
// (same job names, seeds and shards), so each must equal that job's row
// in the offline run of the fresh request it came from; this needs one
// offline run per cycle instead of one per submission. The offline runs
// are independent, so up to workers of them run at once, each on one
// campaign worker; only their digests are kept.
func checkFabric(ctx context.Context, o *outcome, subs []submission, workers int) error {
	type offline struct {
		digest [sha256.Size]byte
		rows   map[string][sha256.Size]byte
		err    error
	}
	refs := make([]offline, len(subs))
	var wg sync.WaitGroup
	slots := make(chan struct{}, workers)
	for i, s := range subs {
		if !s.fresh {
			continue
		}
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			ref, err := farmd.RunMatrix(ctx, s.req, campaign.Options{Workers: 1, ShardSize: s.req.ShardSize})
			if err != nil {
				refs[i].err = err
				return
			}
			r, err := render(ref)
			if err != nil {
				refs[i].err = err
				return
			}
			refs[i].digest = r.digest()
			refs[i].rows = map[string][sha256.Size]byte{}
			for name, row := range r.rows {
				refs[i].rows[name] = sha256.Sum256([]byte(row))
			}
		}()
	}
	wg.Wait()

	want := map[string][sha256.Size]byte{} // job name -> digest of its offline row
	for i, s := range subs {
		if !s.fresh {
			continue
		}
		if refs[i].err != nil {
			return refs[i].err
		}
		for name, d := range refs[i].rows {
			want[name] = d
		}
	}
	for i, s := range subs {
		o.attempted++
		ok := s.rowsOK && len(s.rows) > 0
		if s.fresh {
			ok = ok && s.digest == refs[i].digest
		}
		for name, d := range s.rows {
			if w, found := want[name]; !found || w != d {
				ok = false
			}
		}
		if !ok {
			o.failed++
			o.note("submission with seeds %v run %q differs from the offline run", s.req.Seeds, s.req.Run)
		}
	}
	return nil
}

// buildRequest expands a request into its job matrix and builds every
// target, the set-up work the coordinator repeats for each submission.
func buildRequest(req *farmd.MatrixRequest) error {
	jobs, err := req.Jobs()
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if _, err := j.Target.Build(); err != nil {
			return fmt.Errorf("job %s: %w", j.Name, err)
		}
	}
	return nil
}

// freshRate is the median PHV rate of the fresh submissions, whose
// shards are all leased and executed.
func freshRate(subs []submission) float64 {
	var rates []float64
	for _, s := range subs {
		if s.fresh {
			rates = append(rates, float64(s.checked)/s.wall)
		}
	}
	return median(rates)
}

// fabricLayers derives the per-layer metrics of the fabric workload from
// the spans of its traced cycles.
func fabricLayers(o *outcome, traced, untraced []submission) {
	traces := map[int64]bool{}
	freshN := 0
	for _, s := range traced {
		traces[s.trace] = true
		if s.fresh {
			freshN++
		}
	}
	leases := inTraces(o.spans, spanLease, traces)
	busy := map[int64]float64{}
	var busyMS []float64
	for _, s := range inTraces(o.spans, spanWorker, traces) {
		busy[s.Parent] = float64(s.DurNS) / 1e6
		busyMS = append(busyMS, busy[s.Parent])
	}
	var overhead []float64
	var bytes int64
	failures := 0
	for _, l := range leases {
		bytes += l.Bytes
		if l.Failed {
			failures++
		}
		if b, ok := busy[l.ID]; ok {
			overhead = append(overhead, float64(l.DurNS)/1e6-b)
		}
	}
	rtt := durations(leases, 1e3)
	o.layer["fabric.lease_rtt_ms.p50"] = median(rtt)
	o.layer["fabric.lease_rtt_ms.p90"] = quantile(rtt, 0.9)
	o.layer["farmd.lease_busy_ms.p50"] = median(busyMS)
	o.layer["fabric.lease_overhead_ms.p50"] = median(overhead)
	if len(leases) > 0 {
		o.layer["fabric.lease_bytes"] = float64(bytes) / float64(len(leases))
	}
	o.layer["fabric.leases"] = float64(len(leases)) / float64(freshN)
	o.layer["fabric.lease_failures"] = float64(failures)

	gets := inTraces(o.spans, spanStoreGet, traces)
	hits := Ratio{Den: int64(len(gets))}
	for _, g := range gets {
		if g.Hit {
			hits.Num++
		}
	}
	cycles := float64(freshN)
	o.layer["cache.hit_ratio"] = hits.Value()
	o.layer["cache.lookups"] = float64(hits.Den) / cycles
	o.layer["cache.get_us.p50"] = median(durations(gets, 1e6))
	o.layer["cache.put_us.p50"] = median(durations(inTraces(o.spans, spanStorePut, traces), 1e6))
	o.layer["cache.remote_get_us.p50"] = median(durations(inTraces(o.spans, spanRemoteGet, traces), 1e6))
	o.layer["cache.remote_put_us.p50"] = median(durations(inTraces(o.spans, spanRemotePut, traces), 1e6))
	o.layer["trace.overhead_share"] = 1 - freshRate(traced)/freshRate(untraced)
	o.note("cache: shared store hits %s over %d traced cycles; %d leases, %d unmatched to a worker span",
		hits, freshN, len(leases), len(leases)-len(overhead))
}
