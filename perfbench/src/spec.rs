//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names; the test in `tests/smoke.rs`
//! checks that the two agree and that every run prints all of them.

/// Registry keys, in registry order; per-key metrics append `.<key>`.
pub const KEYS: [&str; 10] = [
    "b-matching",
    "clique",
    "edge-colouring",
    "matching",
    "mis1",
    "mis2",
    "set-cover-f",
    "set-cover-greedy",
    "vertex-colouring",
    "vertex-cover",
];

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics without a per-key split.
const LAYER: [(&str, &str); 44] = [
    ("io.read_s", "s"),
    ("io.parse_s", "s"),
    ("io.parse_mb_per_s", "MB/s"),
    ("io.render_s", "s"),
    ("io.write_s", "s"),
    ("io.report_bytes", "bytes"),
    ("io.parse_report_s", "s"),
    ("api.solve_s", "s"),
    ("api.solve_allocs", "count"),
    ("api.solve_alloc_mb", "MiB"),
    ("api.stream_solve_s", "s"),
    ("api.commit_s", "s"),
    ("api.transcript_bytes", "bytes"),
    ("api.audit_s", "s"),
    ("mapreduce.supersteps", "count"),
    ("mapreduce.rounds", "count"),
    ("mapreduce.message_words", "count"),
    ("mapreduce.peak_machine_words", "count"),
    ("mapreduce.peak_central_words", "count"),
    ("mapreduce.pass_s", "s"),
    ("mapreduce.outside_pass_s", "s"),
    ("mapreduce.max_skew", "ratio"),
    ("api.solve_allocs_per_superstep", "count"),
    ("dist.shuffle_bytes", "bytes"),
    ("dist.batches", "count"),
    ("dist.shuffle_s", "s"),
    ("dist.recoveries", "count"),
    ("dist.recovery_s", "s"),
    ("dist.replayed_bytes", "bytes"),
    ("dist.vs_shard_ratio", "ratio"),
    ("serve.solve_p50_ms", "ms"),
    ("serve.dup_p50_ms", "ms"),
    ("serve.verify_p50_ms", "ms"),
    ("serve.solver_runs", "count"),
    ("serve.coalesce_hits", "count"),
    ("serve.coalesce_share", "ratio"),
    ("serve.busy_rejects", "count"),
    ("serve.timeouts", "count"),
    ("serve.inflight_high_water", "count"),
    ("serve.queue_depth_high_water", "count"),
    ("serve.slo_share", "ratio"),
    ("workloads.gen_s", "s"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
];

/// Per-layer metrics that also get one `.<key>` entry per registry key.
pub const PER_KEY: [(&str, &str); 4] = [
    ("api.solve_s", "s"),
    ("mapreduce.supersteps", "count"),
    ("mapreduce.pass_s", "s"),
    ("mapreduce.outside_pass_s", "s"),
];

/// Every per-layer metric, printed by every traced run (0 where the
/// workload does not exercise the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    out.push(("trace.overhead_share".into(), "ratio"));
    for (name, unit) in PER_KEY {
        for key in KEYS {
            out.push((format!("{name}.{key}"), unit));
        }
    }
    out
}
