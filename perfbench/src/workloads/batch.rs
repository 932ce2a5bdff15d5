//! `batch-registry`: one instance per kind — a graph, a vertex-weighted
//! graph, a b-matching instance, a `set-frequency` system and a
//! `set-size` system — and all ten registry keys with several seeds each,
//! through `Registry::solve_batch_with` on `shard` at 2 threads.
//!
//! A job is one whole batch: read and parse each instance once, solve
//! every (key, seed) pair of its kind, render every full report and write
//! the rendered reports. The cluster does most of the work here:
//! supersteps, both message planes, the central phases and the
//! distribution cache. `set-cover-greedy` also writes a multi-MB witness,
//! which stresses the render side of `io`.

use std::io::Write as _;
use std::path::Path;

use mrlr_core::api::{self, Backend, Instance, Registry, Report, Solution};
use mrlr_core::io::{self, CertificateMode, TimingMode};
use mrlr_core::mr::MrConfig;

use super::{
    against_first, closed_loop_phases, put_solve_allocs, put_span, read, Outcome, Run, SolveStats,
    MU, THREADS,
};
use crate::stats::{fnv, median};
use crate::trace::Tracer;

/// `(file, generator spec without seed, tiny spec, keys solved on it)`.
const INSTANCES: [(&str, &str, &str, &[&str]); 5] = [
    (
        "graph.txt",
        "densified:n=2000,c=0.4",
        "densified:n=120,c=0.4",
        &[
            "clique",
            "edge-colouring",
            "matching",
            "mis1",
            "mis2",
            "vertex-colouring",
        ],
    ),
    (
        "vertex-weighted.txt",
        "vertex-weighted:n=4000,c=0.4",
        "vertex-weighted:n=120,c=0.4",
        &["vertex-cover"],
    ),
    (
        "b-matching.txt",
        "b-matching:n=1500,c=0.4",
        "b-matching:n=120,c=0.4",
        &["b-matching"],
    ),
    (
        "set-frequency.txt",
        "set-frequency:n=3000,c=0.4,f=3",
        "set-frequency:n=120,c=0.4,f=3",
        &["set-cover-f"],
    ),
    (
        "set-size.txt",
        "set-size:n=20000,m=80000",
        "set-size:n=300,m=1200",
        &["set-cover-greedy"],
    ),
];

/// Solver seeds per key in every batch.
const SEEDS: u64 = 2;
/// At least this many jobs per phase, in cycles of one.
const MIN_JOBS: (usize, u64) = (3, 1);
const REPORTS: &str = "reports.json";

/// The output of one batch: each instance with its reports, in
/// `INSTANCES` order.
type Batch = Vec<(Instance, Vec<Report<Solution>>)>;

/// What batches are compared on, per report: the objective's bits and a
/// fingerprint of the masked full rendering (solution, certificate with
/// its witness, model metrics). Keeping these instead of a whole batch
/// keeps the reports out of `peak_rss_mb`.
fn prints(batch: &Batch) -> Vec<(u64, u64)> {
    batch
        .iter()
        .flat_map(|(_, reports)| reports)
        .map(|r| {
            let doc = io::report_json_with(r, TimingMode::Masked, CertificateMode::Full).render();
            (r.certificate.objective.to_bits(), fnv(doc.as_bytes()))
        })
        .collect()
}

pub fn setup(dir: &Path, seed: u64, tiny: bool) -> Result<u64, String> {
    let mut print = 0u64;
    for (file, spec, tiny_spec, _) in INSTANCES {
        let spec = if tiny { tiny_spec } else { spec };
        print = print.rotate_left(7) ^ super::gen_file(dir, file, &format!("{spec},seed={seed}"))?;
    }
    Ok(print)
}

fn jobs(instance: &Instance, keys: &[&'static str], seed: u64) -> Vec<(&'static str, MrConfig)> {
    keys.iter()
        .flat_map(|&key| {
            (0..SEEDS).map(move |s| {
                (
                    key,
                    instance
                        .auto_config(MU, seed.wrapping_add(s))
                        .with_threads(THREADS),
                )
            })
        })
        .collect()
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let registry = Registry::with_defaults();
    let output = run.dir.join(REPORTS);
    // The first batch's fingerprints; every later batch's must equal them.
    let mut reference: Option<Vec<(u64, u64)>> = None;
    let mut stats = SolveStats::default();
    let mut bytes = Vec::new();
    let mut job = |t: &Tracer, id: u64| -> Result<Batch, String> {
        let mut file = std::fs::File::create(&output).map_err(|e| e.to_string())?;
        let mut done = Vec::with_capacity(INSTANCES.len());
        let (mut input_bytes, mut report_bytes) = (0, 0);
        for (name, _, _, keys) in INSTANCES {
            let text = t.span("io", "io.read", id, || read(&run.dir.join(name)))?;
            let instance = t
                .span("io", "io.parse", id, || io::parse_instance(&text))
                .map_err(|e| format!("{name}: parse: {e}"))?;
            input_bytes += text.len();
            drop(text);
            let jobs = jobs(&instance, keys, run.seed);
            let slots = t.span("api", "api.solve", id, || {
                registry.solve_batch_with(Backend::Shard, std::slice::from_ref(&instance), &jobs)
            });
            let mut reports = Vec::with_capacity(jobs.len());
            for slot in slots.into_iter().flatten() {
                let report = slot.map_err(|e| format!("{name}: solve: {e}"))?;
                let doc = t.span("io", "io.render", id, || {
                    io::report_json_with(&report, TimingMode::Real, CertificateMode::Full).render()
                });
                t.span("io", "io.write", id, || file.write_all(doc.as_bytes()))
                    .map_err(|e| format!("write: {e}"))?;
                report_bytes += doc.len();
                if t.on() {
                    stats.record(id, &report);
                }
                reports.push(report);
            }
            done.push((instance, reports));
        }
        if t.on() {
            bytes.push((input_bytes, report_bytes));
        }
        Ok(done)
    };
    let tracer = closed_loop_phases(run, MIN_JOBS, &mut out, &mut job, |_, batch| {
        against_first(&mut reference, prints(&batch), |a, b| a == b)
    });

    // Checks, after the measured phase (and its peak RSS reading): one
    // more batch, which must match the first as every batch did, and
    // whose every report passes the audit, both in memory and re-parsed
    // from its rendered JSON.
    let last = out
        .tally
        .record(job(&Tracer::new(false), 0).and_then(|batch| {
            let agreed = reference.as_ref().is_some_and(|r| *r == prints(&batch));
            if agreed {
                Ok(batch)
            } else {
                Err("the check batch differs from the first batch".into())
            }
        }));
    for (instance, reports) in last.iter().flatten() {
        for report in reports {
            let checked = (|| -> Result<(), String> {
                api::audit_report(instance, report)
                    .map_err(|e| format!("{}: audit: {e}", report.algorithm))?;
                let doc = io::report_json_with(report, TimingMode::Masked, CertificateMode::Full)
                    .render();
                let stored = tracer
                    .span("io", "io.parse_report", 0, || io::parse_report(&doc))
                    .map_err(|e| format!("{}: parse_report: {e}", report.algorithm))?;
                let witness = stored.witness.as_ref().ok_or("report lacks its witness")?;
                tracer
                    .span("api", "api.audit", 0, || {
                        api::audit(
                            instance,
                            &stored.algorithm,
                            &stored.solution,
                            &stored.claims,
                            witness,
                        )
                    })
                    .map_err(|e| {
                        format!("{}: audit of the parsed report: {e}", report.algorithm)
                    })?;
                Ok(())
            })();
            out.tally.record(checked);
        }
    }
    if reference.is_none() {
        out.tally.fail("no batch completed".into());
    }

    if run.trace {
        let spans = tracer.spans();
        let m = &mut out.metrics;
        put_span(m, &spans, "io.read", "io.read_s");
        let parse = put_span(m, &spans, "io.parse", "io.parse_s");
        put_span(m, &spans, "io.render", "io.render_s");
        put_span(m, &spans, "io.write", "io.write_s");
        put_span(m, &spans, "api.solve", "api.solve_s");
        // Parse-back and audit run once per report, outside the jobs.
        for (span, metric) in [
            ("io.parse_report", "io.parse_report_s"),
            ("api.audit", "api.audit_s"),
        ] {
            let v: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.secs())
                .collect();
            m.put(metric, "s", v.iter().sum::<f64>(), v.len());
        }
        let input: Vec<f64> = bytes.iter().map(|b| b.0 as f64).collect();
        let report: Vec<f64> = bytes.iter().map(|b| b.1 as f64).collect();
        if parse > 0.0 {
            m.put(
                "io.parse_mb_per_s",
                "MB/s",
                median(&input) / 1e6 / parse,
                input.len(),
            );
        }
        m.put("io.report_bytes", "bytes", median(&report), report.len());
        put_solve_allocs(m, &spans, "api.solve");
        stats.put(m, &spans, "api.solve");
    }
    out.tracer = Some(tracer);
    out
}
