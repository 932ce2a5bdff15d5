//! The workloads, and what they share: the closed-loop job runner, the
//! failure tally, and the per-layer numbers read from spans and from the
//! program's own `Report.metrics`.

pub mod batch;
pub mod dist;
pub mod ingest;
pub mod serve;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mrlr_core::api::{Report, Solution};

use crate::stats::{hd_quantile, median, peak_rss_mb, tail_quantile, Metrics};
use crate::trace::{Span, Tracer, BENCH, JOB};

/// Memory exponent µ of every solve.
pub const MU: f64 = 0.3;
/// Solver threads of every solve.
pub const THREADS: usize = 2;
/// Repeats of the set-up work done in the measuring process (parse,
/// daemon start), before the measured phase and as many again after it,
/// so that the samples span the run; `setup_s` takes their median.
pub const PREP_REPS: usize = 3;

/// Inputs of one measured phase, shared by every workload.
pub struct Run<'a> {
    /// Directory holding the instance files written during set-up.
    pub dir: &'a Path,
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Whether this is a traced run.
    pub trace: bool,
}

/// What a measured phase hands back to the parent process.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Set-up work done inside the measuring process (parse, daemon
    /// start), in seconds, once per repeat; `setup_s` adds their median.
    pub prep_s: Vec<f64>,
    /// Wall time of the warm-up job (cold caches), in seconds. Reported
    /// on its own: one cold job is too noisy a sample to gate.
    pub warmup_s: f64,
    /// p99 of how late the open-loop generator sent, when there is one.
    pub late_p99_ms: Option<f64>,
    /// Chrome trace of the traced phase.
    pub tracer: Option<Tracer>,
}

/// Attempted and failed operations, with the first failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` counts as a failure.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

/// Runs `job(id)` back to back until `seconds` have passed and at least
/// `min_jobs` jobs ran, stopping only after a whole number of `cycle`
/// jobs. Each job's output goes to `check(id, output)`, which runs
/// outside the job's wall time; a job counts as failed if either fails.
/// Returns the wall time of every successful job and the phase's elapsed
/// seconds, less the time spent in checks.
pub fn closed_loop<T>(
    seconds: f64,
    (min_jobs, cycle): (usize, u64),
    first_id: u64,
    tally: &mut Tally,
    mut job: impl FnMut(u64) -> Result<T, String>,
    mut check: impl FnMut(u64, T) -> Result<(), String>,
) -> (Vec<f64>, f64) {
    let started = Instant::now();
    let mut checking = 0.0;
    let mut walls = Vec::new();
    let mut id = first_id;
    while walls.len() < min_jobs
        || !(id - first_id).is_multiple_of(cycle)
        || started.elapsed().as_secs_f64() < seconds
    {
        let t0 = Instant::now();
        let result = job(id);
        let wall = t0.elapsed().as_secs_f64();
        let c0 = Instant::now();
        let result = result.and_then(|v| check(id, v));
        checking += c0.elapsed().as_secs_f64();
        if tally.record(result).is_some() {
            walls.push(wall);
        }
        id += 1;
        if walls.len() < min_jobs && tally.failed > 2 * min_jobs as u64 {
            break;
        }
    }
    (walls, started.elapsed().as_secs_f64() - checking)
}

/// The end-to-end metrics of a closed-loop workload whose job latency
/// samples are `walls`, measured over `elapsed` seconds. Call it right
/// after the loop: peak RSS is read here, before any check runs.
pub fn put_closed_loop(m: &mut Metrics, walls: &[f64], elapsed: f64) {
    let q = tail_quantile(walls.len());
    m.put("job_p50_s", "s", hd_quantile(walls, 0.5), walls.len());
    m.put("job_tail_s", "s", hd_quantile(walls, q), walls.len());
    m.put("job_tail_quantile", "ratio", q, walls.len());
    m.put(
        "jobs_per_s",
        "1/s",
        walls.len() as f64 / elapsed,
        walls.len(),
    );
    m.put("peak_rss_mb", "MiB", peak_rss_mb(), 1);
}

/// Runs a closed-loop workload after one warm-up job (id 0, timed as
/// `warmup_s`): untraced, or (traced run) an untraced half followed by a
/// traced half, whose job-wall medians give `trace.overhead_share`. Every
/// job's output, the warm-up's too, goes to `check` (see [`closed_loop`]).
/// Returns the tracer of the traced half.
pub fn closed_loop_phases<T>(
    run: &Run,
    min_jobs: (usize, u64),
    out: &mut Outcome,
    mut job: impl FnMut(&Tracer, u64) -> Result<T, String>,
    mut check: impl FnMut(u64, T) -> Result<(), String>,
) -> Tracer {
    let warm = Instant::now();
    let result = job(&Tracer::new(false), 0);
    out.warmup_s = warm.elapsed().as_secs_f64();
    out.tally.record(result.and_then(|v| check(0, v)));
    if !run.trace {
        let tracer = Tracer::new(false);
        let (walls, elapsed) = closed_loop(
            run.seconds,
            min_jobs,
            1,
            &mut out.tally,
            |id| job(&tracer, id),
            &mut check,
        );
        put_closed_loop(&mut out.metrics, &walls, elapsed);
        return tracer;
    }
    let off = Tracer::new(false);
    let (plain, _) = closed_loop(
        run.seconds / 2.0,
        min_jobs,
        1,
        &mut out.tally,
        |id| job(&off, id),
        &mut check,
    );
    let on = Tracer::new(true);
    let (traced, _) = closed_loop(
        run.seconds / 2.0,
        min_jobs,
        1_000_000,
        &mut out.tally,
        |id| on.span(BENCH, JOB, id, || job(&on, id)),
        &mut check,
    );
    let overhead = median(&traced) / median(&plain) - 1.0;
    out.metrics
        .put("trace.overhead_share", "ratio", overhead, traced.len());
    on
}

/// Whether two reports agree bit for bit: algorithm, solution,
/// certificate with its witness, and the model metrics (`Metrics`'s `==`
/// leaves out host timings and transport detail).
pub fn same_report(a: &Report<Solution>, b: &Report<Solution>) -> bool {
    a.algorithm == b.algorithm
        && a.solution == b.solution
        && a.certificate == b.certificate
        && a.metrics == b.metrics
}

/// Keeps the first output as the reference, which the workload audits
/// after the loop, and requires every later one to equal it.
pub fn against_first<T>(
    reference: &mut Option<T>,
    output: T,
    equal: impl Fn(&T, &T) -> bool,
) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(output);
            Ok(())
        }
        Some(r) if equal(r, &output) => Ok(()),
        Some(_) => Err("output differs from the first job's".into()),
    }
}

/// Per job, the summed duration of the spans named `name`.
pub fn per_job(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_job: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_job.entry(s.job).or_insert(0.0) += s.secs();
    }
    by_job.into_values().collect()
}

/// Puts the median per job of span `span` as metric `metric`.
pub fn put_span(m: &mut Metrics, spans: &[Span], span: &str, metric: &str) -> f64 {
    let v = per_job(spans, span);
    let value = median(&v);
    m.put(metric, "s", value, v.len());
    value
}

/// What one job's reports say about the `mapreduce` layer.
#[derive(Debug, Default, Clone)]
struct JobCounts {
    supersteps: f64,
    rounds: f64,
    message_words: f64,
    peak_machine_words: f64,
    peak_central_words: f64,
    pass_s: f64,
    max_skew: f64,
}

/// Collects `Report.metrics` per job and per key, for the `api` and
/// `mapreduce` per-layer metrics.
#[derive(Debug, Default)]
pub struct SolveStats {
    jobs: BTreeMap<u64, JobCounts>,
    /// Per key: `(solve wall, supersteps, pass seconds)` of every solve.
    keys: BTreeMap<&'static str, Vec<(f64, f64, f64)>>,
}

impl SolveStats {
    pub fn record(&mut self, job: u64, report: &Report<Solution>) {
        let Some(m) = report.metrics.as_ref() else {
            return;
        };
        let pass_s = m.total_wall_nanos() as f64 / 1e9;
        let c = self.jobs.entry(job).or_default();
        c.supersteps += m.supersteps as f64;
        c.rounds += m.rounds as f64;
        c.message_words += m.total_message_words as f64;
        c.peak_machine_words = c.peak_machine_words.max(m.peak_machine_words as f64);
        c.peak_central_words = c.peak_central_words.max(m.peak_central_words as f64);
        c.pass_s += pass_s;
        c.max_skew = c.max_skew.max(m.max_straggler_skew());
        self.keys.entry(report.algorithm).or_default().push((
            report.wall.as_secs_f64(),
            m.supersteps as f64,
            pass_s,
        ));
    }

    /// Puts the `mapreduce.*` metrics and the per-key splits. `solve_span`
    /// names the span whose time, minus the passes, is
    /// `mapreduce.outside_pass_s`.
    pub fn put(&self, m: &mut Metrics, spans: &[Span], solve_span: &str) {
        let jobs: Vec<&JobCounts> = self.jobs.values().collect();
        let n = jobs.len();
        let med =
            |f: &dyn Fn(&JobCounts) -> f64| median(&jobs.iter().map(|c| f(c)).collect::<Vec<_>>());
        m.put("mapreduce.supersteps", "count", med(&|c| c.supersteps), n);
        m.put("mapreduce.rounds", "count", med(&|c| c.rounds), n);
        m.put(
            "mapreduce.message_words",
            "count",
            med(&|c| c.message_words),
            n,
        );
        m.put(
            "mapreduce.peak_machine_words",
            "count",
            med(&|c| c.peak_machine_words),
            n,
        );
        m.put(
            "mapreduce.peak_central_words",
            "count",
            med(&|c| c.peak_central_words),
            n,
        );
        m.put("mapreduce.pass_s", "s", med(&|c| c.pass_s), n);
        m.put("mapreduce.max_skew", "ratio", med(&|c| c.max_skew), n);

        // Span-derived: solve time outside the passes, and allocations.
        let mut by_job: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == solve_span) {
            let e = by_job.entry(s.job).or_insert((0.0, 0.0));
            e.0 += s.secs();
            e.1 += s.allocs as f64;
        }
        let mut outside = Vec::new();
        let mut per_step = Vec::new();
        for (job, (secs, allocs)) in &by_job {
            if let Some(c) = self.jobs.get(job) {
                outside.push(secs - c.pass_s);
                if c.supersteps > 0.0 {
                    per_step.push(allocs / c.supersteps);
                }
            }
        }
        m.put(
            "mapreduce.outside_pass_s",
            "s",
            median(&outside),
            outside.len(),
        );
        // Every allocation in the solve span, from every thread
        // (distribution, central phase and witness recording too), per
        // superstep: not the router's own allocs/superstep.
        m.put(
            "api.solve_allocs_per_superstep",
            "count",
            median(&per_step),
            per_step.len(),
        );

        for (key, solves) in &self.keys {
            let n = solves.len();
            let col =
                |i: usize| -> Vec<f64> { solves.iter().map(|t| [t.0, t.1, t.2][i]).collect() };
            let outside: Vec<f64> = solves.iter().map(|t| t.0 - t.2).collect();
            m.put(format!("api.solve_s.{key}"), "s", median(&col(0)), n);
            m.put(
                format!("mapreduce.supersteps.{key}"),
                "count",
                median(&col(1)),
                n,
            );
            m.put(format!("mapreduce.pass_s.{key}"), "s", median(&col(2)), n);
            m.put(
                format!("mapreduce.outside_pass_s.{key}"),
                "s",
                median(&outside),
                n,
            );
        }
    }
}

/// Puts `api.solve_allocs` and `api.solve_alloc_mb` from the spans named
/// `solve_span`.
pub fn put_solve_allocs(m: &mut Metrics, spans: &[Span], solve_span: &str) {
    let mut by_job: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == solve_span) {
        let e = by_job.entry(s.job).or_insert((0.0, 0.0));
        e.0 += s.allocs as f64;
        e.1 += s.alloc_bytes as f64 / (1024.0 * 1024.0);
    }
    let (allocs, mb): (Vec<f64>, Vec<f64>) = by_job.into_values().unzip();
    m.put("api.solve_allocs", "count", median(&allocs), allocs.len());
    m.put("api.solve_alloc_mb", "MiB", median(&mb), mb.len());
}

/// Reads a file into a string, with the path in the error.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Writes a file, with the path in the error.
pub fn write(path: &Path, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Builds an instance from a `mrlr gen` spec, renders it, writes it to
/// `dir/file`. Returns the text's fingerprint.
pub fn gen_file(dir: &Path, file: &str, spec: &str) -> Result<u64, String> {
    let instance = mrlr_bench::workloads::build_spec(spec).map_err(|e| format!("{spec}: {e}"))?;
    let text = mrlr_core::io::render_instance(&instance);
    write(&dir.join(file), &text)?;
    Ok(crate::stats::fnv(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_is_compared_with_the_first() {
        let mut reference = None;
        let eq = |a: &u32, b: &u32| a == b;
        assert!(against_first(&mut reference, 7, eq).is_ok());
        assert!(against_first(&mut reference, 7, eq).is_ok());
        assert!(against_first(&mut reference, 8, eq).is_err());
        assert_eq!(reference, Some(7));
    }

    #[test]
    fn a_failed_check_fails_its_job() {
        let mut tally = Tally::default();
        let (walls, _) = closed_loop(0.0, (4, 1), 1, &mut tally, Ok, |id, v: u64| {
            if id == 3 {
                Err(format!("job {v}"))
            } else {
                Ok(())
            }
        });
        assert_eq!(walls.len(), 4);
        assert_eq!((tally.attempted, tally.failed), (5, 1));
    }
}
