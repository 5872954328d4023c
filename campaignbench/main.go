// Command campaignbench is the repository's end-to-end benchmark. It
// drives the library's public entry points (campaign.Run, and an
// in-process dcoord + dfarmd pair on loopback via farmd.SubmitOpts) with
// seeded workloads, checks every report against the offline single-worker
// rendering of the same inputs, and prints its metrics by name and unit;
// the last line of standard output is one JSON result object.
//
// Usage, from the repository root:
//
//	bash campaignbench/run.sh --workload rmt-fuzz --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// wrappers in the program's path. With --trace 1 it wraps the calls into
// each layer, records spans in memory, writes them to --trace-dir at exit
// and prints the per-layer metrics. Workloads, metrics and the layer to
// end-to-end map are in metrics.go.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// outcome is what one run measured.
type outcome struct {
	e2e, layer        map[string]float64
	notes             []string
	attempted, failed int64
	correct           bool
	spans             []Span
}

func newOutcome() *outcome {
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, correct: true}
	for _, m := range perLayer {
		o.layer[m.name] = 0 // a layer the workload does not cross reads 0
	}
	return o
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: rmt-fuzz, drmt-fuzz, verify or fabric")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	// Two workers (fewer on a one-CPU host): the workloads are sized for
	// them, and the result must not change meaning with the host's size.
	workers := min(2, runtime.GOMAXPROCS(0))
	prov := provenance(*seed, workers)

	ctx := context.Background()
	var o *outcome
	var err error
	switch *workload {
	case "rmt-fuzz":
		o, err = runOffline(ctx, offlineWorkload{build: rmtFuzzMatrix, unit: "PHVs"}, *seed, *seconds, *trace == 1, workers)
	case "drmt-fuzz":
		o, err = runOffline(ctx, offlineWorkload{build: drmtFuzzMatrix, unit: "PHVs"}, *seed, *seconds, *trace == 1, workers)
	case "verify":
		o, err = runOffline(ctx, offlineWorkload{build: verifyMatrix, unit: "cells"}, *seed, *seconds, *trace == 1, workers)
	case "fabric":
		o, err = runFabric(ctx, *seed, *seconds, *trace == 1, workers)
	default:
		fatalf("unknown --workload %q", *workload)
	}
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	o.e2e["peak_rss_mb"] = peakRSSMB()
	if o.attempted > 0 {
		o.layer["error_ratio"] = float64(o.failed) / float64(o.attempted)
	}

	defs := endToEnd
	values := o.e2e
	if *trace == 1 {
		defs, values = perLayer, o.layer
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := writeTrace(path, prov, o.spans); err != nil {
			fatalf("write trace: %v", err)
		}
		o.note("spans written to %s", path)
	}
	printReport(*workload, prov, o, defs, values, *trace == 1)

	res := result{Correct: o.correct && o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatalf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "campaignbench: "+format+"\n", args...)
	os.Exit(2)
}

// printReport prints the human-readable block that precedes the result
// line: provenance, why the workload exists, every metric with its unit,
// the notes, and in traced runs the layer to end-to-end map.
func printReport(workload string, prov map[string]string, o *outcome, defs []metricDef, values map[string]float64, traced bool) {
	keys := make([]string, 0, len(prov))
	for k := range prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s: %s\n", k, prov[k])
	}
	for _, w := range workloads {
		if w.name == workload {
			fmt.Printf("# workload %s: %s\n", w.name, w.why)
		}
	}
	for _, d := range defs {
		fmt.Printf("%-30s %14.6g %-6s", d.name, values[d.name], d.unit)
		if traced {
			fmt.Printf("  -> %s", d.moves)
		}
		fmt.Println()
	}
	fmt.Printf("# correctness: %d of %d attempted failed\n", o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Printf("# %s\n", n)
	}
}

// provenance records where and how a result was measured.
func provenance(seed int64, workers int) map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"workers":    strconv.Itoa(workers),
		"seed":       strconv.FormatInt(seed, 10),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
