package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"druzhba/internal/campaign"
)

// A run repeats its set-up at least setupReps times and until the
// repetitions add up to setupSeconds; setup_s is their median, so one
// slow set-up does not move it, and a set-up of a few milliseconds is
// repeated often enough that its median is steady. Each repetition
// starts after a forced collection, so garbage left by the previous one
// is not charged to it.
const (
	setupReps    = 11
	setupSeconds = 2
)

// setupDone reports whether the set-up times collected so far suffice.
func setupDone(times []float64) bool {
	return len(times) >= setupReps && sum(times) >= setupSeconds
}

// offlineWorkload is a workload that runs campaign.Run in process.
type offlineWorkload struct {
	build func(seed int64) (*matrix, error)
	unit  string // what checked_per_s counts: "PHVs" or "cells"
}

// offlineSetup builds the matrix and every job's target until setupDone,
// and returns the last matrix with the median set-up time.
func offlineSetup(w offlineWorkload, seed int64) (*matrix, float64, error) {
	var times []float64
	var m *matrix
	for !setupDone(times) {
		runtime.GC()
		start := time.Now()
		var err error
		m, err = w.build(seed)
		if err != nil {
			return nil, 0, err
		}
		for _, j := range m.jobs {
			if _, err := j.Target.Build(); err != nil {
				return nil, 0, fmt.Errorf("job %s: %w", j.Name, err)
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return m, median(times), nil
}

// rendering is a report's deterministic form: its text and JSON without
// timing or cache metadata, plus each row's JSON for per-row checks.
type rendering struct {
	text, json string
	rows       map[string]string
}

func render(rep *campaign.Report) (rendering, error) {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, false); err != nil {
		return rendering{}, err
	}
	r := rendering{text: rep.Text(false), json: buf.String(), rows: map[string]string{}}
	for _, j := range rep.Jobs {
		data, err := json.Marshal(j)
		if err != nil {
			return rendering{}, err
		}
		r.rows[j.Name] = string(data)
	}
	return r, nil
}

// digest identifies a rendering; the fabric workload keeps only digests
// of the reports it receives, so the benchmark's own memory does not grow
// with the number of submissions.
func (r rendering) digest() [sha256.Size]byte {
	return sha256.Sum256([]byte(r.text + "\x00" + r.json))
}

// rowWrong is the per-row correctness rule: a row is wrong if it errored
// or was aborted, if a clean job did not pass (every clean proof cell must
// prove), or if it differs from the same row of the offline single-worker
// reference. A mutant may pass, fail, or stay undecided within its solver
// budget.
func rowWrong(j *campaign.JobReport, mutant bool, ref rendering) bool {
	switch j.Status {
	case campaign.StatusError, campaign.StatusAborted:
		return true
	case campaign.StatusFail, campaign.StatusUnknown:
		if !mutant {
			return true
		}
	}
	data, err := json.Marshal(j)
	return err != nil || string(data) != ref.rows[j.Name]
}

// campaignRun is one timed repetition of an offline campaign.
type campaignRun struct {
	traced    bool
	trace     int64 // root span ID when traced
	wall      float64
	firstRow  float64
	firstCEX  float64 // -1 when no row failed
	toCEX     int64   // PHVs checked up to and including the first counterexample
	checked   int64   // PHVs, or proof cells on verify
	rows      int
	wrongRows int
	sameText  bool
}

func (c campaignRun) perSec() float64 { return float64(c.checked) / c.wall }

// runCampaign runs the jobs once and checks the report against ref.
func runCampaign(ctx context.Context, m *matrix, workers int, ref rendering, rec *Recorder) (campaignRun, error) {
	jobs := m.jobs
	run := campaignRun{firstCEX: -1, toCEX: -1}
	if rec != nil {
		var err error
		if jobs, err = traceJobs(jobs, rec); err != nil {
			return run, err
		}
		run.traced = true
		run.trace = rec.beginRoot()
	}
	var before int64 // PHVs checked by rows streamed before the first failing row
	start := time.Now()
	rep, err := campaign.Run(ctx, jobs, campaign.Options{
		Workers: workers,
		OnJobReport: func(jr campaign.JobReport) {
			t := time.Since(start).Seconds()
			if run.rows == 0 {
				run.firstRow = t
			}
			run.rows++
			if run.firstCEX < 0 && jr.Status == campaign.StatusFail {
				run.firstCEX = t
				run.toCEX = before + int64(jr.Counterexamples[0].Packet) + 1
			}
			if run.firstCEX < 0 {
				before += int64(jr.Checked)
			}
		},
	})
	run.wall = time.Since(start).Seconds()
	if rec != nil {
		rec.add(Span{ID: run.trace, Name: spanCampaign, StartNS: rec.since(start), DurNS: int64(run.wall * 1e9), Count: int64(len(jobs))}, 0)
	}
	if err != nil {
		return run, err
	}
	got, err := render(rep)
	if err != nil {
		return run, err
	}
	run.sameText = got.text == ref.text && got.json == ref.json
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		if j.Mode == campaign.ModeVerify {
			run.checked += int64(len(j.Cells))
		} else {
			run.checked += int64(j.Checked)
		}
		if rowWrong(j, m.isMut[j.Name], ref) {
			run.wrongRows++
		}
	}
	if !run.sameText && run.wrongRows == 0 {
		run.wrongRows = 1 // the campaign-level rendering differs even if no row does
	}
	return run, nil
}

// runOffline runs one offline workload: set-up, the single-worker
// reference, then timed repetitions on the worker pool until seconds have
// passed. A traced run alternates untraced and traced repetitions, so the
// tracing overhead is measured within the run.
func runOffline(ctx context.Context, w offlineWorkload, seed int64, seconds float64, trace bool, workers int) (*outcome, error) {
	m, setup, err := offlineSetup(w, seed)
	if err != nil {
		return nil, err
	}
	refRep, err := campaign.Run(ctx, m.jobs, campaign.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	ref, err := render(refRep)
	if err != nil {
		return nil, err
	}
	var rec *Recorder
	if trace {
		rec = newRecorder()
	}
	var runs []campaignRun
	start := time.Now()
	for i := 0; ; i++ {
		var r *Recorder
		if trace && i%2 == 1 {
			r = rec
		}
		run, err := runCampaign(ctx, m, workers, ref, r)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		if time.Since(start).Seconds() >= seconds && (!trace || i >= 1) {
			break
		}
	}

	o := newOutcome()
	var untraced, traced []campaignRun
	for _, r := range runs {
		o.attempted += int64(len(m.jobs))
		o.failed += int64(r.wrongRows + len(m.jobs) - r.rows)
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	walls := pick(untraced, func(r campaignRun) float64 { return r.wall })
	rates := pick(untraced, campaignRun.perSec)
	firstRows := pick(untraced, func(r campaignRun) float64 { return r.firstRow })
	var firstCEX []float64
	for _, r := range untraced {
		if r.firstCEX >= 0 {
			firstCEX = append(firstCEX, r.firstCEX)
		}
	}
	tail := tailOf(walls)
	o.e2e["setup_s"] = setup
	o.e2e["checked_per_s"] = median(rates)
	o.e2e["campaign_s.p50"] = median(walls)
	o.e2e["campaign_s.tail"] = tail.Value
	o.e2e["first_row_s.p50"] = median(firstRows)
	o.note("checked_per_s counts %s; %d jobs per campaign, %d untraced campaigns", w.unit, len(m.jobs), len(untraced))
	o.note("campaign_s.tail is the %s", tail)

	killed := Ratio{Den: int64(len(m.isMut))}
	for _, j := range refRep.Jobs {
		if m.isMut[j.Name] && j.Status == campaign.StatusFail {
			killed.Num++
		}
	}
	o.layer["mutants.killed_ratio"] = killed.Value()
	o.layer["mutants.injected"] = float64(killed.Den)
	o.layer["campaign.phvs_to_first_cex"] = float64(max(runs[0].toCEX, 0))
	if len(firstCEX) > 0 {
		o.layer["campaign.first_cex_s"] = median(firstCEX)
	}
	o.note("bug finding: mutants killed %s; first_cex_s %.4g s (median); phvs_to_first_cex %d", killed, median(firstCEX), runs[0].toCEX)

	var ticks, ticked int64
	var conflicts, clauses float64
	for _, j := range refRep.Jobs {
		if j.Arch == "drmt" {
			ticks += j.Ticks
			ticked += int64(j.Checked)
		}
		for _, c := range j.Cells {
			conflicts += float64(c.Conflicts)
			clauses += float64(c.Clauses)
		}
	}
	if ticked > 0 {
		o.layer["drmt.ticks_per_pkt"] = float64(ticks) / float64(ticked)
	}
	o.layer["sat.conflicts"] = conflicts
	o.layer["sat.clauses"] = clauses

	if trace {
		o.spans = rec.snapshot()
		if err := offlineLayers(o, m, traced, untraced, workers, conflicts); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func pick[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func spanSeconds(spans []Span) float64 {
	var t int64
	for _, s := range spans {
		t += s.DurNS
	}
	return float64(t) / 1e9
}

func durations(spans []Span, scale float64) []float64 {
	return pick(spans, func(s Span) float64 { return float64(s.DurNS) / 1e9 * scale })
}

// offlineLayers derives the per-layer metrics of an offline workload from
// the spans of its traced campaigns and from the isolated replays.
func offlineLayers(o *outcome, m *matrix, traced, untraced []campaignRun, workers int, conflicts float64) error {
	jobs := map[string]*campaign.Job{}
	for i := range m.jobs {
		jobs[m.jobs[i].Name] = &m.jobs[i]
	}
	traces := map[int64]bool{}
	for _, r := range traced {
		traces[r.trace] = true
	}
	n := float64(len(traced))
	shards := inTraces(o.spans, spanShard, traces)
	busy := spanSeconds(shards)
	o.layer["core.build_ms"] = spanSeconds(inTraces(o.spans, spanBuild, traces)) / n * 1e3
	o.layer["campaign.runner_setup_ms"] = spanSeconds(inTraces(o.spans, spanRunner, traces)) / n * 1e3
	o.layer["campaign.shard_busy_s"] = busy / n
	o.layer["campaign.shard_ms.p50"] = median(durations(shards, 1e3))
	o.layer["campaign.shard_ms.p90"] = quantile(durations(shards, 1e3), 0.9)
	var idle []float64
	for _, r := range traced {
		idle = append(idle, 1-spanSeconds(inTraces(shards, spanShard, map[int64]bool{r.trace: true}))/(float64(workers)*r.wall))
	}
	o.layer["campaign.idle_share"] = sum(idle) / n
	findings := 0
	for _, s := range shards {
		findings += s.Findings
	}
	o.layer["campaign.findings"] = float64(findings) / n
	o.layer["trace.overhead_share"] = 1 - median(pick(traced, campaignRun.perSec))/median(pick(untraced, campaignRun.perSec))

	var rmtShards, drmtShards, cellShards, lastRMT, lastDRMT []Span
	last := traced[len(traced)-1].trace
	for _, s := range shards {
		switch jobs[s.Job].Target.(type) {
		case *campaign.PipelineTarget:
			rmtShards = append(rmtShards, s)
			if s.Trace == last {
				lastRMT = append(lastRMT, s)
			}
		case *campaign.DRMTTarget:
			drmtShards = append(drmtShards, s)
			if s.Trace == last {
				lastDRMT = append(lastDRMT, s)
			}
		case *campaign.VerifyTarget:
			cellShards = append(cellShards, s)
		}
	}

	if len(rmtShards) > 0 {
		specs := inTraces(o.spans, spanSpec, traces)
		var calls, phvs int64
		for _, s := range specs {
			calls += s.Count
		}
		for _, s := range rmtShards {
			phvs += s.Count
		}
		specNS := spanSeconds(specs) * 1e9 / float64(calls)
		o.layer["domino.spec_ns_per_phv"] = specNS
		o.layer["domino.spec_share"] = spanSeconds(specs) / busy
		iso, err := isolateRMT(jobs, lastRMT)
		if err != nil {
			return err
		}
		o.layer["sim.gen_ns_per_phv"] = iso.genNS
		o.layer["sim.engine_ns_per_phv"] = iso.engineNS
		busyNS := spanSeconds(rmtShards) * 1e9 / float64(phvs)
		o.layer["sim.compare_ns_per_phv"] = residual(busyNS, specNS, iso.genNS, iso.engineNS)
		o.note("sim.compare_ns_per_phv is a residual: %.1f busy - %.1f spec - %.1f gen - %.1f engine ns/PHV; it includes the spec wrapper's clock reads",
			busyNS, specNS, iso.genNS, iso.engineNS)
	}
	if len(drmtShards) > 0 {
		iso, err := isolateDRMT(jobs, lastDRMT)
		if err != nil {
			return err
		}
		o.layer["drmt.gen_ns_per_pkt"] = iso.genNS
		o.layer["drmt.isa_ns_per_pkt"] = iso.isaNS
		o.layer["drmt.table_ns_per_pkt"] = iso.tableNS
	}
	if len(cellShards) > 0 {
		cells := durations(cellShards, 1)
		o.layer["verify.cell_s.p50"] = median(cells)
		o.layer["verify.cell_s.max"] = maxOf(cells)
		o.layer["sat.conflicts_per_s"] = conflicts / (sum(cells) / n)
	}
	return nil
}
