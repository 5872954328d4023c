package main

import (
	"fmt"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
)

// The isolated measurements replay the exact shards of one traced
// campaign (same pipelines and machines, same shard seeds and sizes)
// through one layer at a time, on one goroutine, so each layer's cost per
// PHV is measured without the others in the loop.

// rmtIsolated is the per-PHV cost of traffic generation and of the
// pipeline engine alone over the rmt shards.
type rmtIsolated struct {
	genNS, engineNS float64
	phvs            int64
}

func isolateRMT(jobs map[string]*campaign.Job, shards []Span) (rmtIsolated, error) {
	var out rmtIsolated
	var genDur, engDur time.Duration
	pipes := map[string]*core.Pipeline{}
	for _, s := range shards {
		t, ok := jobs[s.Job].Target.(*campaign.PipelineTarget)
		if !ok {
			continue
		}
		pipe := pipes[s.Job]
		if pipe == nil {
			var err error
			if pipe, err = core.Build(t.Spec, t.Code, t.Level); err != nil {
				return out, fmt.Errorf("isolate %s: %w", s.Job, err)
			}
			pipes[s.Job] = pipe
		}
		n, width := int(s.Count), pipe.PHVLen()
		gen, err := sim.NewTrafficGenMode(s.Seed, width, pipe.Bits(), t.MaxInput, t.Traffic)
		if err != nil {
			return out, err
		}
		in := make([]phv.Value, n*width)
		start := time.Now()
		for i := 0; i < n; i++ {
			gen.Fill(in[i*width : (i+1)*width])
		}
		genDur += time.Since(start)

		pipe.ResetState()
		stream := sim.NewStream(pipe)
		start = time.Now()
		for i := 0; i < n; i++ {
			if _, err := stream.Tick(in[i*width : (i+1)*width]); err != nil {
				return out, fmt.Errorf("isolate %s: %w", s.Job, err)
			}
		}
		for stream.InFlight() > 0 {
			if _, err := stream.Tick(nil); err != nil {
				return out, fmt.Errorf("isolate %s: %w", s.Job, err)
			}
		}
		engDur += time.Since(start)
		out.phvs += int64(n)
	}
	if out.phvs > 0 {
		out.genNS = float64(genDur.Nanoseconds()) / float64(out.phvs)
		out.engineNS = float64(engDur.Nanoseconds()) / float64(out.phvs)
	}
	return out, nil
}

// drmtIsolated is the per-packet cost of dRMT traffic generation, of the
// ISA machine and of the table-level machine alone over the dRMT shards.
type drmtIsolated struct {
	genNS, isaNS, tableNS float64
	pkts                  int64
}

func isolateDRMT(jobs map[string]*campaign.Job, shards []Span) (drmtIsolated, error) {
	var out drmtIsolated
	var genDur, isaDur, tabDur time.Duration
	for _, s := range shards {
		t, ok := jobs[s.Job].Target.(*campaign.DRMTTarget)
		if !ok {
			continue
		}
		isa, err := drmt.NewISAMachine(t.Program, t.ISA, t.Entries, t.HW)
		if err != nil {
			return out, fmt.Errorf("isolate %s: %w", s.Job, err)
		}
		tab, err := drmt.NewMachine(t.Program, t.Entries, t.HW, nil)
		if err != nil {
			return out, fmt.Errorf("isolate %s: %w", s.Job, err)
		}
		gen, err := drmt.NewTrafficGenMode(s.Seed, t.Program, t.MaxInput, t.Traffic)
		if err != nil {
			return out, err
		}
		n, width := int(s.Count), gen.NumFields()
		in := make([]int64, n*width)
		start := time.Now()
		for i := 0; i < n; i++ {
			gen.Fill(in[i*width : (i+1)*width])
		}
		genDur += time.Since(start)

		work := make([]int64, width)
		start = time.Now()
		for i := 0; i < n; i++ {
			copy(work, in[i*width:(i+1)*width])
			if _, _, err := isa.ExecSlots(work); err != nil {
				return out, fmt.Errorf("isolate %s: %w", s.Job, err)
			}
		}
		isaDur += time.Since(start)

		start = time.Now()
		for i := 0; i < n; i++ {
			copy(work, in[i*width:(i+1)*width])
			tab.ProcessSlots(work)
		}
		tabDur += time.Since(start)
		out.pkts += int64(n)
	}
	if out.pkts > 0 {
		out.genNS = float64(genDur.Nanoseconds()) / float64(out.pkts)
		out.isaNS = float64(isaDur.Nanoseconds()) / float64(out.pkts)
		out.tableNS = float64(tabDur.Nanoseconds()) / float64(out.pkts)
	}
	return out, nil
}
