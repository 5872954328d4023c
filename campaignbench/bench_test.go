package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"druzhba/internal/campaign"
	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/fabric"
	"druzhba/internal/farmd"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// smallJobs is a matrix touching every traced target type: two RMT
// benchmarks (one with a mutant), one dRMT program and one proof job.
func smallJobs(t *testing.T) []campaign.Job {
	t.Helper()
	benches := []*spec.Benchmark{spec.Match("sampling")[0], spec.Match("flowlets")[0]}
	jobs, err := campaign.Matrix(benches, []core.OptLevel{core.Compiled}, []sim.TrafficMode{sim.TrafficUniform}, []int64{5}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	muts, err := genMutants(5, benches, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range muts {
		j, err := mutantFuzzJob(&muts[i], 5)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	dj, err := campaign.DRMTMatrix(drmt.MatchBenchmarks("counter"), nil, nil, []int64{5}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	vj, err := campaign.VerifyMatrix(benches[:1], []int{3}, []int{2}, []int64{5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(jobs, dj...), vj...)
}

func TestTracedReportByteIdentical(t *testing.T) {
	jobs := smallJobs(t)
	ctx := context.Background()
	plain, err := campaign.Run(ctx, jobs, campaign.Options{Workers: 2, ShardSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	traced, err := traceJobs(jobs, rec)
	if err != nil {
		t.Fatal(err)
	}
	rec.beginRoot()
	got, err := campaign.Run(ctx, traced, campaign.Options{Workers: 2, ShardSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	want, err := render(plain)
	if err != nil {
		t.Fatal(err)
	}
	have, err := render(got)
	if err != nil {
		t.Fatal(err)
	}
	if have.text != want.text || have.json != want.json {
		t.Fatalf("traced report differs from untraced:\n--- traced\n%s--- untraced\n%s", have.text, want.text)
	}

	// Every shard is recorded, and the folded spec spans count exactly
	// the PHVs their RMT shards checked.
	count := map[string]int64{}
	var shards int
	specs := map[int64]int64{}
	for _, s := range rec.snapshot() {
		count[s.Name]++
		switch s.Name {
		case spanShard:
			shards++
			if _, ok := jobsByName(jobs)[s.Job].Target.(*campaign.PipelineTarget); ok {
				specs[s.ID] += s.Count
			}
		case spanSpec:
			specs[s.Parent] -= s.Count
		}
	}
	if want := plainShards(plain); shards != want {
		t.Fatalf("recorded %d shard spans, campaign ran %d shards", shards, want)
	}
	for id, left := range specs {
		if left != 0 {
			t.Fatalf("shard span %d: spec calls and checked PHVs differ by %d", id, left)
		}
	}
	if count[spanBuild] != int64(len(jobs)) || count[spanRunner] == 0 || count[spanSpec] == 0 {
		t.Fatalf("span counts %v", count)
	}
}

func jobsByName(jobs []campaign.Job) map[string]*campaign.Job {
	out := map[string]*campaign.Job{}
	for i := range jobs {
		out[jobs[i].Name] = &jobs[i]
	}
	return out
}

func plainShards(rep *campaign.Report) int {
	n := 0
	for _, j := range rep.Jobs {
		n += j.ShardsRun
	}
	return n
}

func mutantKeys(ms []Mutant) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Bench.Name+"/"+m.Name())
	}
	return out
}

func TestMutantsDeterministic(t *testing.T) {
	a, err := genMutants(7, spec.All(), rmtMutants)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genMutants(7, spec.All(), rmtMutants)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mutantKeys(a), mutantKeys(b)) {
		t.Fatalf("one seed gave two mutant sets:\n%v\n%v", mutantKeys(a), mutantKeys(b))
	}
	c, err := genMutants(8, spec.All(), rmtMutants)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(mutantKeys(a), mutantKeys(c)) {
		t.Fatalf("seeds 7 and 8 gave the same mutant set %v", mutantKeys(a))
	}
	for _, m := range a {
		orig, err := m.Bench.MachineCode()
		if err != nil {
			t.Fatal(err)
		}
		diff := 0
		for _, p := range orig.Pairs() {
			if v, _ := m.Code.Get(p.Name); v != p.Value {
				diff++
			}
		}
		if diff != 1 || m.Code.Len() != orig.Len() || m.To == m.From {
			t.Fatalf("mutant %s changes %d pairs, want exactly one", m.Name(), diff)
		}
	}
}

// TestRMTFuzzInterleaved pins the rmt-fuzz job order: a clean job first,
// and one mutant after every third clean job rather than all of them
// after the clean jobs.
func TestRMTFuzzInterleaved(t *testing.T) {
	m, err := rmtFuzzMatrix(7)
	if err != nil {
		t.Fatal(err)
	}
	var at []int
	for i, j := range m.jobs {
		if m.isMut[j.Name] {
			at = append(at, i)
		}
	}
	want := []int{3, 7, 11, 15, 19, 23, 27, 31}
	if len(m.jobs) != 2*len(spec.All())+rmtMutants || !reflect.DeepEqual(at, want) {
		t.Fatalf("%d jobs with mutants at %v, want %d jobs with mutants at %v",
			len(m.jobs), at, 2*len(spec.All())+rmtMutants, want)
	}
}

func TestTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		var xs []float64
		for i := n; i >= 1; i-- { // unsorted on purpose
			xs = append(xs, float64(i))
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
		exact  bool
	}{
		{n: 1, value: 1, pct: 100, beyond: 0, exact: false},
		{n: 5, value: 5, pct: 100, beyond: 0, exact: false},
		{n: 10, value: 9, pct: 90, beyond: 1, exact: false},
		{n: 11, value: 10, pct: 100.0 * 10 / 11, beyond: 1, exact: false},
		{n: 20, value: 18, pct: 90, beyond: 2, exact: false},
		{n: 21, value: 19, pct: 100.0 * 19 / 21, beyond: 2, exact: false},
		{n: 99, value: 90, pct: 100.0 * 90 / 99, beyond: 9, exact: false},
		{n: 100, value: 90, pct: 90, beyond: 10, exact: true},
		{n: 101, value: 91, pct: 100.0 * 91 / 101, beyond: 10, exact: true},
		{n: 1000, value: 990, pct: 99, beyond: 10, exact: true},
	} {
		got := tailOf(ramp(tc.n))
		if got.Value != tc.value || math.Abs(got.Percentile-tc.pct) > 1e-9 || got.Beyond != tc.beyond || got.Exact != tc.exact || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v", tc.n, got)
		}
	}
	if !math.IsNaN(tailOf(nil).Value) {
		t.Error("tail of no samples is a number")
	}
}

func TestRatioKeepsBase(t *testing.T) {
	r := Ratio{Num: 3, Den: 8}
	if r.Value() != 0.375 || r.String() != "3/8" {
		t.Fatalf("got %v %s", r.Value(), r)
	}
	if !math.IsNaN((Ratio{}).Value()) {
		t.Fatal("a ratio over an empty base reads as a number")
	}
}

func TestResidualNotClamped(t *testing.T) {
	if got := residual(10, 6, 7); got != -3 {
		t.Fatalf("residual(10, 6, 7) = %v, want -3", got)
	}
	if got := residual(10, 4); got != 6 {
		t.Fatalf("residual(10, 4) = %v, want 6", got)
	}
}

func TestFabricRequestsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for cycle := 0; cycle < 6; cycle++ {
		reqs := fabricRequests(3, cycle)
		if !reflect.DeepEqual(reqs, fabricRequests(3, cycle)) {
			t.Fatalf("cycle %d requests are not a function of (seed, cycle)", cycle)
		}
		for _, r := range reqs {
			id, err := fabric.CampaignID(r)
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("cycle %d repeats campaign %s: it would replay a journal", cycle, id)
			}
			seen[id] = true
		}
	}
}

func TestFabricByteIdentical(t *testing.T) {
	rec := newRecorder()
	env, err := startFabric(2, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	ctx := context.Background()
	for cycle := 0; cycle < 2; cycle++ {
		for _, req := range fabricRequests(9, cycle) {
			sub, err := env.submit(ctx, req, rec)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := farmd.RunMatrix(ctx, req, campaign.Options{Workers: 1, ShardSize: req.ShardSize})
			if err != nil {
				t.Fatal(err)
			}
			want, err := render(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !sub.rowsOK || sub.digest != want.digest() {
				t.Fatalf("cycle %d run %q: fabric report differs from offline", cycle, req.Run)
			}
		}
	}
	if st := env.coord.Dispatcher().Stats(); st.Leases == 0 || st.Fallback != 0 || st.Retries != 0 {
		t.Fatalf("dispatcher stats %+v", st)
	}
	var leases, workers, hits int
	for _, s := range rec.snapshot() {
		switch s.Name {
		case spanLease:
			leases++
		case spanWorker:
			workers++
		case spanStoreGet:
			if s.Hit {
				hits++
			}
		}
	}
	if leases == 0 || leases != workers || hits == 0 {
		t.Fatalf("leases=%d worker spans=%d store hits=%d", leases, workers, hits)
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
		Why    string `json:"why"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ws []entry
	for _, w := range workloads {
		ws = append(ws, entry{Name: w.name, Why: w.why})
	}
	defs := func(ds []metricDef) []entry {
		var out []entry
		for _, d := range ds {
			out = append(out, entry{Name: d.name, Unit: d.unit, Better: d.better})
		}
		return out
	}
	if !reflect.DeepEqual(b.Workloads, ws) {
		t.Errorf("workloads differ from BENCHMARK.json")
	}
	if !reflect.DeepEqual(b.EndToEnd, defs(endToEnd)) {
		t.Errorf("end-to-end metrics differ from BENCHMARK.json")
	}
	if !reflect.DeepEqual(b.PerLayer, defs(perLayer)) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json")
	}
}
