package main

// metricSpec is one metric as listed in BENCHMARK.json. Every run
// reports all metrics of its kind; a layer a workload does not
// exercise reads 0 in a traced run.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, reported on every
// workload. setup_s is the median of several set-ups, each everything
// before the timed loop: loading, generating, starting the service and
// one warm-up pass over the inputs. On the batch workloads an operation is one assessment
// through the rendered JSON report (core.RunCtx + WriteJSON) and
// jobs_per_s is assessments per second of assessment time for one
// caller; on served-edits an operation is one job, from submit sent to
// report received, and jobs_per_s counts jobs completed per second of
// wall time by the two closed-loop clients. peak_rss_mb is the median,
// over the timed loop's one-second windows, of each window's peak
// resident set size. The workload-specific figures — job_ms_p50/p99,
// failed_share, plan_defect_share, the sample counts — are printed on
// the human-readable lines only, since every metric here must be a
// nonzero value on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"verdict_ms_p50", "ms", "lower"},
	{"verdict_ms_p90", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. The end-to-end metric each
// should move, and on which workload:
//   - optimize.*, mitigation.*: verdict_ms on plant-optimize only.
//   - hazard.*: verdict_ms and peak_rss_mb on fleet-sweep; job_ms_p99 on
//     served-edits (delta and cold jobs); ~1% of plant-optimize.
//   - solver.*, cegar.*: verdict_ms on casestudy-asp only.
//   - sysmodel.*, faults.*, epa.*, attack.*: setup_s and cold served jobs;
//     a small share everywhere else.
//   - core.*: job_ms_p50 on served-edits (rendering on every job) and
//     peak_rss_mb everywhere.
//   - artifact.*, serve.*: job_ms and jobs_per_s on served-edits.
//   - trace.*: the price and fidelity of the traced run, not targets.
var perLayer = []metricSpec{
	{"optimize.exact_ms", "ms", "lower"},
	{"optimize.phases_ms", "ms", "lower"},
	{"optimize.alloc_mb", "MB", "lower"},
	{"optimize.plan_defect_share", "ratio", "lower"},
	{"mitigation.prepare_ms", "ms", "lower"},
	{"mitigation.loss_rows", "count", "lower"},
	{"mitigation.options", "count", "lower"},
	{"hazard.sweep_ms", "ms", "lower"},
	{"hazard.scenarios", "count", "higher"},
	{"hazard.executed", "count", "lower"},
	{"hazard.pruned", "count", "higher"},
	{"hazard.replicated", "count", "higher"},
	{"hazard.executed_share", "ratio", "lower"},
	{"hazard.sweep_alloc_mb", "MB", "lower"},
	{"solver.asp_ms", "ms", "lower"},
	{"solver.decisions", "count", "lower"},
	{"solver.conflicts", "count", "lower"},
	{"solver.propagations", "count", "lower"},
	{"cegar.validate_ms", "ms", "lower"},
	{"cegar.findings", "count", "lower"},
	{"cegar.screened_out", "count", "higher"},
	{"cegar.oracle_checks", "count", "lower"},
	{"cegar.confirmed", "count", "higher"},
	{"cegar.spurious", "count", "lower"},
	{"sysmodel.busy_ms", "ms", "lower"},
	{"faults.busy_ms", "ms", "lower"},
	{"faults.candidates", "count", "lower"},
	{"epa.compile_ms", "ms", "lower"},
	{"attack.busy_ms", "ms", "lower"},
	{"core.render_json_ms", "ms", "lower"},
	{"core.report_bytes", "bytes", "lower"},
	{"core.alloc_mb_per_op", "MB", "lower"},
	{"artifact.warm_share", "ratio", "higher"},
	{"artifact.delta_share", "ratio", "higher"},
	{"artifact.cold_share", "ratio", "lower"},
	{"artifact.evictions", "count", "lower"},
	{"serve.submit_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p99", "ms", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"serve.run_ms_p99", "ms", "lower"},
	{"serve.report_ms_p50", "ms", "lower"},
	{"serve.polls_per_job", "count", "lower"},
	{"serve.envelope_ms_p50", "ms", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.self_share", "ratio", "higher"},
	{"trace.stage_agreement", "ratio", "lower"},
}
