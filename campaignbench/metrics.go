package main

// The metric catalog. BENCHMARK.json at the repository root declares the
// same names and units; TestCatalogMatchesBenchmarkJSON keeps them equal.

// workloadInfo names a workload and records why it is in the benchmark.
type workloadInfo struct {
	name, why string
}

var workloads = []workloadInfo{
	{"rmt-fuzz", "Table-1 RMT campaign at level compiled plus seeded single-hole mutants: engine and Domino oracle dominate; mutants drive the failing path"},
	{"drmt-fuzz", "dRMT ISA-vs-table differential campaign plus one seeded add->sub miscompile: the only workload where the drmt slot engines dominate"},
	{"verify", "SAT bounded-equivalence campaign over Table-1 and the mutants: the only workload for verify/bv/sat, proven and refuted cells side by side"},
	{"fabric", "dcoord + one dfarmd on loopback, closed-loop client, fresh seeds then overlapping resubmissions: leasing, HTTP/JSON and the shard store"},
}

// metricDef is one reported metric. For an end-to-end metric, moves says
// what is measured; for a per-layer metric it names the end-to-end metric
// and workload the layer should move, so later changes can cite the
// pairing by name.
type metricDef struct {
	name, unit, better, moves string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "time to build the matrix and every target (fabric: also start and register both daemons); median of at least 11 set-ups that add up to at least 2 s"},
	{"checked_per_s", "1/s", "higher", "PHVs checked per second (fuzz workloads; fabric: fresh submissions), proof cells decided per second (verify); median"},
	{"campaign_s.p50", "s", "lower", "campaign wall time (fabric: submit to summary row), median"},
	{"campaign_s.tail", "s", "lower", "highest percentile of campaign_s with >=10 samples beyond it, but at least p90 (with fewer beyond when there are under 100 samples)"},
	{"first_row_s.p50", "s", "lower", "campaign start (fabric: submit) to the first streamed row, median"},
	{"peak_rss_mb", "MB", "lower", "peak resident set of the benchmark process"},
}

var perLayer = []metricDef{
	{"core.build_ms", "ms", "lower", "checked_per_s on rmt-fuzz; campaign_s.p50 on fabric (sum of Target.Build per campaign)"},
	{"campaign.runner_setup_ms", "ms", "lower", "checked_per_s on rmt-fuzz; campaign_s.p50 on fabric (sum of Instance.NewRunner per campaign)"},
	{"campaign.shard_busy_s", "s", "lower", "checked_per_s (sum of Runner.RunShard per campaign)"},
	{"campaign.shard_ms.p50", "ms", "lower", "checked_per_s"},
	{"campaign.shard_ms.p90", "ms", "lower", "checked_per_s"},
	{"campaign.idle_share", "ratio", "lower", "checked_per_s (1 - busy/(workers x wall))"},
	{"campaign.findings", "count", "higher", "first_cex_s, peak_rss_mb on rmt-fuzz (mismatching PHVs per campaign, exact)"},
	{"campaign.phvs_to_first_cex", "count", "lower", "first_cex_s (exact)"},
	{"campaign.first_cex_s", "s", "lower", "bug finding: campaign start to the first failing row, median"},
	{"mutants.killed_ratio", "ratio", "higher", "bug finding: killed / injected, exact"},
	{"mutants.injected", "count", "higher", "base of mutants.killed_ratio"},
	{"domino.spec_ns_per_phv", "ns", "lower", "checked_per_s on rmt-fuzz; ~0 elsewhere"},
	{"domino.spec_share", "ratio", "lower", "checked_per_s on rmt-fuzz (spec time / shard busy time)"},
	{"sim.gen_ns_per_phv", "ns", "lower", "checked_per_s on rmt-fuzz (isolated TrafficGen.Fill)"},
	{"sim.engine_ns_per_phv", "ns", "lower", "checked_per_s on rmt-fuzz (isolated Stream.Tick)"},
	{"sim.compare_ns_per_phv", "ns", "lower", "checked_per_s, first_cex_s on rmt-fuzz (residual: busy - spec - gen - engine, not clamped)"},
	{"drmt.gen_ns_per_pkt", "ns", "lower", "checked_per_s on drmt-fuzz (isolated TrafficGen.Fill)"},
	{"drmt.isa_ns_per_pkt", "ns", "lower", "checked_per_s on drmt-fuzz (isolated ISAMachine.ExecSlots)"},
	{"drmt.table_ns_per_pkt", "ns", "lower", "checked_per_s on drmt-fuzz (isolated Machine.ProcessSlots)"},
	{"drmt.ticks_per_pkt", "count", "lower", "none: simulated cycles per packet, exact; must not move under speed-only changes"},
	{"verify.cell_s.p50", "s", "lower", "checked_per_s on verify"},
	{"verify.cell_s.max", "s", "lower", "checked_per_s, campaign_s.p50 on verify (the makespan cell)"},
	{"sat.conflicts", "count", "lower", "checked_per_s on verify (per campaign, exact)"},
	{"sat.clauses", "count", "lower", "checked_per_s on verify (per campaign, exact)"},
	{"sat.conflicts_per_s", "1/s", "higher", "checked_per_s on verify"},
	{"fabric.lease_rtt_ms.p50", "ms", "lower", "campaign_s.* on fabric"},
	{"fabric.lease_rtt_ms.p90", "ms", "lower", "campaign_s.tail on fabric"},
	{"farmd.lease_busy_ms.p50", "ms", "lower", "campaign_s.* on fabric (worker lease handler)"},
	{"fabric.lease_overhead_ms.p50", "ms", "lower", "campaign_s.*, first_row_s.p50 on fabric (rtt - busy per lease)"},
	{"fabric.lease_bytes", "bytes", "lower", "campaign_s.* on fabric (request + response bytes per lease)"},
	{"fabric.leases", "count", "lower", "campaign_s.* on fabric (leases per fresh submission, exact)"},
	{"fabric.lease_failures", "count", "lower", "error rate on fabric (failed lease round trips)"},
	{"cache.hit_ratio", "ratio", "higher", "campaign_s.p50 on fabric (shared store hits / lookups, exact)"},
	{"cache.lookups", "count", "lower", "base of cache.hit_ratio (shared store lookups per cycle)"},
	{"cache.get_us.p50", "us", "lower", "campaign_s.p50 on fabric (shared store Get)"},
	{"cache.put_us.p50", "us", "lower", "campaign_s.p50 on fabric (shared store Put)"},
	{"cache.remote_get_us.p50", "us", "lower", "campaign_s.tail on fabric (worker's remote tier Get over HTTP)"},
	{"cache.remote_put_us.p50", "us", "lower", "campaign_s.tail on fabric (worker's remote tier Put over HTTP)"},
	{"error_ratio", "ratio", "lower", "errored, aborted or wrong rows (fabric: submissions) / attempted"},
	{"trace.overhead_share", "ratio", "lower", "none: 1 - traced/untraced checked_per_s within the traced run"},
}
