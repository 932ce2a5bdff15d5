//! `dist-2w`: `vertex-colouring` and `vertex-cover` (whose `exchange`
//! crosses the wire) and `matching` (no shuffle bytes, so pure
//! control-plane cost) on the `dist` backend with 2 worker processes, on
//! a graph with n ≈ 8000. Workers are this binary, re-entered through
//! `dist::worker::worker_main` as `mrlr` does.
//!
//! A job is one solve plus render, from an instance parsed during set-up.
//! Jobs cycle through the three keys, and one job in four kills worker 0
//! at superstep 1, so twelve jobs cover every (key, kill) pair once. This
//! is the only workload where the dist wire (encode, socket, digest,
//! decode) and respawn-and-replay run.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mrlr_core::api::{self, Backend, Instance, Registry, Report, Solution};
use mrlr_core::io::{self, CertificateMode, TimingMode};
use mrlr_core::mr::MrConfig;
use mrlr_mapreduce::{SpawnKind, WorkerKill};

use super::{
    against_first, closed_loop_phases, put_solve_allocs, put_span, read, same_report, Outcome, Run,
    SolveStats, MU, THREADS,
};
use crate::stats::median;
use crate::trace::Tracer;

const WORKERS: usize = 2;
/// `(key, instance file)` in job order.
const KEYS: [(&str, &str); 3] = [
    ("vertex-colouring", "graph.txt"),
    ("vertex-cover", "vertex-weighted.txt"),
    ("matching", "graph.txt"),
];
/// Every fourth job kills a worker.
const KILL_EVERY: u64 = 4;
/// Three keys times one kill in four: whole cycles of twelve jobs.
const MIN_JOBS: (usize, u64) = (12, 12);

pub fn setup(dir: &Path, seed: u64, tiny: bool) -> Result<u64, String> {
    let n = if tiny { 200 } else { 8000 };
    let a = super::gen_file(
        dir,
        "graph.txt",
        &format!("densified:n={n},c=0.3,seed={seed}"),
    )?;
    let b = super::gen_file(
        dir,
        "vertex-weighted.txt",
        &format!("vertex-weighted:n={n},c=0.3,seed={seed}"),
    )?;
    Ok(a.rotate_left(7) ^ b)
}

/// `(key, killed)` of job `id`.
fn job_kind(id: u64) -> (usize, bool) {
    ((id % 3) as usize, id % KILL_EVERY == KILL_EVERY - 1)
}

fn cfg(instance: &Instance, seed: u64) -> MrConfig {
    instance.auto_config(MU, seed).with_threads(THREADS)
}

fn render(report: &Report<Solution>, timing: TimingMode) -> String {
    io::report_json_with(report, timing, CertificateMode::Full).render()
}

/// Parses every instance file the jobs use.
fn parse_all(dir: &Path) -> Result<BTreeMap<&'static str, Instance>, String> {
    let mut instances = BTreeMap::new();
    for (_, file) in KEYS {
        if !instances.contains_key(file) {
            let text = read(&dir.join(file))?;
            let instance = io::parse_instance(&text).map_err(|e| format!("{file}: {e}"))?;
            instances.insert(file, instance);
        }
    }
    Ok(instances)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let registry = Registry::with_defaults();
    // Set-up inside this process: parse the instances, repeated here and
    // after the measured phase (see `PREP_REPS`).
    let mut instances = BTreeMap::new();
    for _ in 0..super::PREP_REPS {
        let prep = Instant::now();
        match parse_all(run.dir) {
            Ok(parsed) => instances = parsed,
            Err(e) => {
                out.tally.record::<()>(Err(e));
                return out;
            }
        }
        out.prep_s.push(prep.elapsed().as_secs_f64());
    }

    // The first report of every (key, killed) pair, for the checks; every
    // later one must equal it.
    let mut first: BTreeMap<(usize, bool), Report<Solution>> = BTreeMap::new();
    let mut stats = SolveStats::default();
    let mut summaries = Vec::new();
    let mut solve_by_key: Vec<(usize, f64)> = Vec::new();
    let job = |t: &Tracer, id: u64| -> Result<Report<Solution>, String> {
        let (k, killed) = job_kind(id);
        let (key, file) = KEYS[k];
        let instance = &instances[file];
        let mut cfg = cfg(instance, run.seed)
            .with_workers(WORKERS)
            .with_spawn(SpawnKind::Process);
        if killed {
            cfg = cfg.with_worker_kill(WorkerKill {
                worker: 0,
                superstep: 1,
            });
        }
        let t0 = Instant::now();
        let report = t
            .span("api", "api.solve", id, || {
                registry.solve_with(key, Backend::Dist, instance, &cfg)
            })
            .map_err(|e| format!("{key}: dist solve: {e}"))?;
        let solve_s = t0.elapsed().as_secs_f64();
        t.span("io", "io.render", id, || render(&report, TimingMode::Real));
        if t.on() {
            stats.record(id, &report);
            solve_by_key.push((k, solve_s));
            if let Some(summary) = report.metrics.as_ref().and_then(|m| m.dist.clone()) {
                summaries.push(summary);
            }
        }
        Ok(report)
    };
    let tracer = closed_loop_phases(run, MIN_JOBS, &mut out, job, |id, report| {
        let (k, killed) = job_kind(id);
        let key = KEYS[k].0;
        let summary = report
            .metrics
            .as_ref()
            .and_then(|m| m.dist.as_ref())
            .ok_or_else(|| format!("{key}: dist report lacks its DistSummary"))?;
        if killed && summary.recoveries.is_empty() {
            return Err(format!("{key}: the injected worker kill never fired"));
        }
        let mut reference = first.remove(&(k, killed));
        let agreed = against_first(&mut reference, report, same_report)
            .map_err(|_| format!("{key}: report differs from an earlier identical job"));
        first.insert((k, killed), reference.expect("a reference report"));
        agreed
    });
    for _ in 0..super::PREP_REPS {
        let prep = Instant::now();
        let parsed = parse_all(run.dir);
        out.prep_s.push(prep.elapsed().as_secs_f64());
        out.tally.record(parsed.map(drop));
    }

    // Checks: every dist report equals the shard report of the same job,
    // bit for bit, with and without the kill, and passes the audit.
    let mut shard_s = [0.0f64; 3];
    for (k, (key, file)) in KEYS.iter().enumerate() {
        let instance = &instances[file];
        let reps = if run.trace { 3 } else { 1 };
        let mut walls = Vec::new();
        let mut shard = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = registry.solve_with(key, Backend::Shard, instance, &cfg(instance, run.seed));
            walls.push(t0.elapsed().as_secs_f64());
            shard = Some(r);
        }
        shard_s[k] = median(&walls);
        let checked = (|| -> Result<(), String> {
            let shard = shard
                .expect("at least one shard solve")
                .map_err(|e| format!("{key}: shard solve: {e}"))?;
            for killed in [false, true] {
                let dist = first
                    .get(&(k, killed))
                    .ok_or_else(|| format!("{key}: no dist job ran (killed: {killed})"))?;
                // Solution, certificate with its witness, and the model
                // metrics (host observations are excluded from `==`).
                if dist.solution != shard.solution
                    || dist.certificate != shard.certificate
                    || dist.metrics != shard.metrics
                {
                    return Err(format!(
                        "{key}: dist report differs from shard (killed: {killed})"
                    ));
                }
                api::audit_report(instance, dist).map_err(|e| format!("{key}: audit: {e}"))?;
            }
            Ok(())
        })();
        out.tally.record(checked);
    }

    if run.trace {
        let spans = tracer.spans();
        let m = &mut out.metrics;
        put_span(m, &spans, "api.solve", "api.solve_s");
        put_span(m, &spans, "io.render", "io.render_s");
        put_solve_allocs(m, &spans, "api.solve");
        stats.put(m, &spans, "api.solve");
        let n = summaries.len();
        let per_job = |f: &dyn Fn(&mrlr_mapreduce::DistSummary) -> f64| {
            median(&summaries.iter().map(f).collect::<Vec<_>>())
        };
        m.put(
            "dist.shuffle_bytes",
            "bytes",
            per_job(&|s| {
                s.shuffle
                    .iter()
                    .map(|w| (w.bytes_out + w.bytes_in) as f64)
                    .sum()
            }),
            n,
        );
        m.put(
            "dist.batches",
            "count",
            per_job(&|s| s.shuffle.iter().map(|w| w.batches as f64).sum()),
            n,
        );
        m.put(
            "dist.shuffle_s",
            "s",
            per_job(&|s| s.shuffle_nanos as f64 / 1e9),
            n,
        );
        let events: Vec<_> = summaries.iter().flat_map(|s| s.recoveries.iter()).collect();
        m.put("dist.recoveries", "count", events.len() as f64, n);
        let rec: Vec<f64> = events.iter().map(|e| e.wall_nanos as f64 / 1e9).collect();
        let replayed: Vec<f64> = events.iter().map(|e| e.replayed_bytes as f64).collect();
        m.put("dist.recovery_s", "s", median(&rec), rec.len());
        m.put(
            "dist.replayed_bytes",
            "bytes",
            median(&replayed),
            replayed.len(),
        );
        let dist_total: f64 = solve_by_key.iter().map(|(_, s)| s).sum();
        let shard_total: f64 = solve_by_key.iter().map(|(k, _)| shard_s[*k]).sum();
        if shard_total > 0.0 {
            m.put("dist.vs_shard_ratio", "ratio", dist_total / shard_total, n);
        }
    }
    out.tracer = Some(tracer);
    out
}
