//! `ingest-1m` and `ingest-1m-stream`: one `densified` instance of about
//! 10^6 edges in a 31 MB file, solved as `matching` on `shard` at 2
//! threads, from file to written report.
//!
//! * `ingest-1m` (materialized): read file → `io::parse_instance` →
//!   `Registry::solve_with` → `io::report_json_with(.., Full)` → write.
//! * `ingest-1m-stream`: open file → `api::solve_matching_stream` →
//!   `api::commit_witness` → render the committed report → write the
//!   report and its transcript.
//!
//! Parsing is most of the materialized job and the cluster runs only two
//! supersteps, so front-end work shows here and router work hides. Both
//! jobs use the same `StreamParser`; they differ in graph build versus
//! per-machine blocks, and in full versus committed witness.

use std::path::Path;

use mrlr_core::api::{self, Backend, Registry, Report, Solution, Witness};
use mrlr_core::io::{self, CertificateMode, TimingMode};
use mrlr_core::mr::MrConfig;

use super::{
    against_first, closed_loop_phases, put_solve_allocs, put_span, read, same_report, write,
    Outcome, Run, SolveStats, MU, THREADS,
};
use crate::stats::median;
use crate::trace::{Span, Tracer};

const INSTANCE: &str = "instance.txt";
const REPORT: &str = "report.json";
const TRANSCRIPT: &str = "transcript.txt";
/// Entries per committed-witness chunk.
const CHUNK_LEN: usize = 4096;
/// At least this many jobs per phase, in cycles of one.
const MIN_JOBS: (usize, u64) = (3, 1);

/// Set-up: generate the instance and write it.
pub fn setup(dir: &Path, seed: u64, tiny: bool) -> Result<u64, String> {
    let n = if tiny { 300 } else { 19_307 };
    super::gen_file(dir, INSTANCE, &format!("densified:n={n},c=0.4,seed={seed}"))
}

fn cfg(n: usize, m: usize, seed: u64) -> MrConfig {
    // `Instance::auto_config` for a graph, so streamed and materialized
    // solves run the same cluster.
    MrConfig::auto(n, m.max(1), MU, seed).with_threads(THREADS)
}

fn render(report: &Report<Solution>, timing: TimingMode) -> String {
    io::report_json_with(report, timing, CertificateMode::Full).render()
}

/// The materialized job, measured.
pub fn run_materialized(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let registry = Registry::with_defaults();
    let (input, output) = (run.dir.join(INSTANCE), run.dir.join(REPORT));
    // The first job's report; every later job's must equal it.
    let mut reference: Option<Report<Solution>> = None;
    let mut stats = SolveStats::default();
    let mut bytes = Vec::new();
    let job = |t: &Tracer, id: u64| -> Result<Report<Solution>, String> {
        let text = t.span("io", "io.read", id, || read(&input))?;
        let instance = t
            .span("io", "io.parse", id, || io::parse_instance(&text))
            .map_err(|e| format!("parse: {e}"))?;
        let text_len = text.len();
        drop(text);
        let g = instance.graph().ok_or("not a graph")?;
        let cfg = cfg(g.n(), g.m(), run.seed);
        let report = t
            .span("api", "api.solve", id, || {
                registry.solve_with("matching", Backend::Shard, &instance, &cfg)
            })
            .map_err(|e| format!("solve: {e}"))?;
        let doc = t.span("io", "io.render", id, || render(&report, TimingMode::Real));
        t.span("io", "io.write", id, || write(&output, &doc))?;
        if t.on() {
            stats.record(id, &report);
            bytes.push((text_len, doc.len()));
        }
        Ok(report)
    };
    let tracer = closed_loop_phases(run, MIN_JOBS, &mut out, job, |_, report| {
        against_first(&mut reference, report, same_report)
    });

    // Checks, outside the measured jobs: the first report passes the
    // audit (every later one equals it), and the last written report
    // re-parses and passes the audit.
    let checked = (|| -> Result<(), String> {
        let instance = io::parse_instance(&read(&input)?).map_err(|e| e.to_string())?;
        let reference = reference.as_ref().ok_or("no job completed")?;
        api::audit_report(&instance, reference).map_err(|e| format!("audit: {e}"))?;
        let doc = read(&output)?;
        let stored = tracer
            .span("io", "io.parse_report", 0, || io::parse_report(&doc))
            .map_err(|e| format!("parse_report: {e}"))?;
        let witness = stored.witness.as_ref().ok_or("report lacks its witness")?;
        tracer
            .span("api", "api.audit", 0, || {
                api::audit(
                    &instance,
                    &stored.algorithm,
                    &stored.solution,
                    &stored.claims,
                    witness,
                )
            })
            .map_err(|e| format!("audit of the written report: {e}"))?;
        Ok(())
    })();
    out.tally.record(checked);
    if run.trace {
        let spans = tracer.spans();
        put_io(&mut out, &spans, &bytes);
        put_span(&mut out.metrics, &spans, "api.solve", "api.solve_s");
        put_solve_allocs(&mut out.metrics, &spans, "api.solve");
        stats.put(&mut out.metrics, &spans, "api.solve");
    }
    out.tracer = Some(tracer);
    out
}

/// The streamed job, measured.
pub fn run_stream(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let input = run.dir.join(INSTANCE);
    let (output, transcript_path) = (run.dir.join(REPORT), run.dir.join(TRANSCRIPT));
    // The first job's report (with its full witness) and committed
    // witness; every later job's must equal them.
    let mut reference: Option<(Report<Solution>, Witness)> = None;
    let mut stats = SolveStats::default();
    let mut bytes = Vec::new();
    let job = |t: &Tracer, id: u64| -> Result<(Report<Solution>, Witness), String> {
        let mut report = t
            .span("api", "api.stream_solve", id, || {
                let file = std::fs::File::open(&input).map_err(|e| e.to_string())?;
                api::solve_matching_stream(file, io::DEFAULT_BUF_LEN, Backend::Shard, |n, m| {
                    cfg(n, m, run.seed)
                })
                .map_err(|e| e.to_string())
            })
            .map_err(|e| format!("streamed solve: {e}"))?
            .map(Solution::Matching);
        let commitment = t
            .span("api", "api.commit", id, || {
                api::commit_witness(&report.certificate.witness, CHUNK_LEN)
            })
            .map_err(|e| format!("commit: {e}"))?;
        let full = std::mem::replace(&mut report.certificate.witness, commitment.witness);
        let doc = t.span("io", "io.render", id, || render(&report, TimingMode::Real));
        t.span("io", "io.write", id, || {
            write(&output, &doc)?;
            write(&transcript_path, &commitment.transcript)
        })?;
        let committed = std::mem::replace(&mut report.certificate.witness, full);
        if t.on() {
            stats.record(id, &report);
            bytes.push((doc.len(), commitment.transcript.len()));
        }
        Ok((report, committed))
    };
    let tracer = closed_loop_phases(run, MIN_JOBS, &mut out, job, |_, output| {
        against_first(&mut reference, output, |a, b| {
            same_report(&a.0, &b.0) && a.1 == b.1
        })
    });

    // Checks: the last written committed report audits against its
    // transcript, and the first streamed report (every later one equals
    // it) equals the materialized one.
    let checked = (|| -> Result<(), String> {
        let instance = io::parse_instance(&read(&input)?).map_err(|e| e.to_string())?;
        let stored = io::parse_report(&read(&output)?).map_err(|e| format!("parse_report: {e}"))?;
        let committed = stored.witness.as_ref().ok_or("report lacks its witness")?;
        let transcript = read(&transcript_path)?;
        tracer
            .span("api", "api.audit", 0, || {
                api::audit_committed(
                    &instance,
                    &stored.algorithm,
                    &stored.solution,
                    &stored.claims,
                    committed,
                    &transcript,
                )
            })
            .map_err(|e| format!("audit_committed: {e}"))?;
        let g = instance.graph().ok_or("not a graph")?;
        let materialized = Registry::with_defaults()
            .solve_with(
                "matching",
                Backend::Shard,
                &instance,
                &cfg(g.n(), g.m(), run.seed),
            )
            .map_err(|e| format!("materialized solve: {e}"))?;
        let (first, _) = reference.as_ref().ok_or("no job completed")?;
        if render(first, TimingMode::Masked) != render(&materialized, TimingMode::Masked) {
            return Err("streamed report differs from the materialized report".into());
        }
        Ok(())
    })();
    out.tally.record(checked);
    if run.trace {
        let spans = tracer.spans();
        let m = &mut out.metrics;
        put_span(m, &spans, "api.stream_solve", "api.stream_solve_s");
        put_span(m, &spans, "api.commit", "api.commit_s");
        put_span(m, &spans, "io.render", "io.render_s");
        put_span(m, &spans, "io.write", "io.write_s");
        put_span(m, &spans, "api.audit", "api.audit_s");
        let reports: Vec<f64> = bytes.iter().map(|b| b.0 as f64).collect();
        let transcripts: Vec<f64> = bytes.iter().map(|b| b.1 as f64).collect();
        m.put("io.report_bytes", "bytes", median(&reports), reports.len());
        m.put(
            "api.transcript_bytes",
            "bytes",
            median(&transcripts),
            transcripts.len(),
        );
        put_solve_allocs(m, &spans, "api.stream_solve");
        stats.put(m, &spans, "api.stream_solve");
    }
    out.tracer = Some(tracer);
    out
}

/// The `io.*` metrics of the materialized job; `bytes` holds `(instance
/// bytes, report bytes)` per traced job.
fn put_io(out: &mut Outcome, spans: &[Span], bytes: &[(usize, usize)]) {
    let m = &mut out.metrics;
    put_span(m, spans, "io.read", "io.read_s");
    let parse = put_span(m, spans, "io.parse", "io.parse_s");
    put_span(m, spans, "io.render", "io.render_s");
    put_span(m, spans, "io.write", "io.write_s");
    put_span(m, spans, "io.parse_report", "io.parse_report_s");
    put_span(m, spans, "api.audit", "api.audit_s");
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
}
