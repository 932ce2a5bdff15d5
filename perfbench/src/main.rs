//! End-to-end and per-layer benchmark of the mrlr workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The command generates the workload's inputs from the seed and writes
//! them under `.bench_run/` (set-up, repeated and timed), then starts
//! itself again as a child process that runs the measured phase, so the
//! child's peak RSS holds no set-up. The child checks every output, and
//! the parent prints the run metadata, one line per metric with its unit
//! and sample count, and as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! An untraced run (`--trace 0`) prints the end-to-end metrics, a traced
//! run (`--trace 1`) the per-layer metrics; see `perfbench/README.md`.
//! A failed check makes the command exit with code 1.

mod alloc;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use mrlr_core::io::{parse_json, Json, JsonValue};

use stats::{median, Metrics};
use workloads::{Outcome, Run};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Where runs write their inputs, outputs and traces, relative to the
/// directory the command runs in.
const RUN_ROOT: &str = ".bench_run";
/// Set-ups before the measured phase, whose median is part of `setup_s`:
/// at least `MIN`, and more while they have taken less than `SECS` in
/// all, up to `MAX`. As many again run after it, so that the samples span
/// the run and not one short stretch of the host's speed.
const SETUP_REPS: (usize, f64, usize) = (2, 1.0, 5);

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ingest,
    IngestStream,
    Batch,
    Dist,
    Serve,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::Ingest,
        Workload::IngestStream,
        Workload::Batch,
        Workload::Dist,
        Workload::Serve,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest-1m",
            Workload::IngestStream => "ingest-1m-stream",
            Workload::Batch => "batch-registry",
            Workload::Dist => "dist-2w",
            Workload::Serve => "serve-mix",
        }
    }

    /// Generates the inputs into `dir`; returns their fingerprint.
    fn setup(self, dir: &Path, seed: u64, tiny: bool) -> Result<u64, String> {
        match self {
            Workload::Ingest | Workload::IngestStream => workloads::ingest::setup(dir, seed, tiny),
            Workload::Batch => workloads::batch::setup(dir, seed, tiny),
            Workload::Dist => workloads::dist::setup(dir, seed, tiny),
            Workload::Serve => workloads::serve::setup(dir, seed, tiny),
        }
    }

    /// The measured phase (in the child process).
    fn run(self, run: &Run) -> Outcome {
        match self {
            Workload::Ingest => workloads::ingest::run_materialized(run),
            Workload::IngestStream => workloads::ingest::run_stream(run),
            Workload::Batch => workloads::batch::run(run),
            Workload::Dist => workloads::dist::run(run),
            Workload::Serve => workloads::serve::run(run),
        }
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    /// Set in the child: the run directory the parent prepared.
    child_dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut child_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--child" => child_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        tiny,
        child_dir,
    })
}

fn main() {
    // Dist worker processes re-enter this binary, as they do `mrlr`.
    if std::env::var_os(mrlr_mapreduce::dist::worker::SOCKET_ENV).is_some() {
        std::process::exit(mrlr_mapreduce::dist::worker::worker_main());
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match &opts.child_dir {
        Some(dir) => child(&opts, dir),
        None => match parent(&opts) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

// ------------------------------------------------------------------ child

/// The measured phase: prints its lines, then one JSON line for the
/// parent.
fn child(opts: &Opts, dir: &Path) -> i32 {
    let run = Run {
        dir,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
    };
    let out = opts.workload.run(&run);
    if let Some(tracer) = out.tracer.as_ref().filter(|t| t.on()) {
        let spans = tracer.spans();
        println!("per-layer self time of the traced phase (s):");
        for (layer, secs) in trace::layer_table(&spans) {
            println!("  {layer:<10} {secs:.6}");
        }
        let path = dir.join("trace.json");
        if let Err(e) = tracer.write_chrome(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let mut metrics = out.metrics;
    if let Some(tracer) = out.tracer.as_ref().filter(|t| t.on()) {
        let spans = tracer.spans();
        if spans.iter().any(|s| s.name == trace::JOB) {
            let share = trace::unattributed_share(&spans);
            metrics.put("trace.unattributed_share", "ratio", share, 1);
        }
    }
    if let Some(late) = out.late_p99_ms {
        metrics.put("loadgen.late_p99_ms", "ms", late, 1);
    }
    let doc = Json::Obj(vec![
        (
            "prep_s",
            Json::Arr(out.prep_s.iter().copied().map(Json::F64).collect()),
        ),
        ("warmup_s", Json::F64(out.warmup_s)),
        ("attempted", Json::U64(out.tally.attempted)),
        ("failed", Json::U64(out.tally.failed)),
        (
            "failures",
            Json::Arr(out.tally.failures.into_iter().map(Json::Str).collect()),
        ),
        (
            "metrics",
            Json::Arr(
                metrics
                    .0
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name", Json::str(&*m.name)),
                            ("unit", Json::str(m.unit)),
                            ("value", Json::F64(m.value)),
                            ("samples", Json::count(m.samples)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", doc.render_compact());
    0
}

// ----------------------------------------------------------------- parent

/// What the parent reads back from the child's last line.
struct ChildResult {
    prep_s: Vec<f64>,
    warmup_s: f64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Metrics,
}

fn parse_child(line: &str) -> Result<ChildResult, String> {
    let v = parse_json(line).map_err(|e| format!("child output: {e}"))?;
    let num = |v: &JsonValue, k: &str| {
        v.get(k)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("child output lacks `{k}`"))
    };
    let mut metrics = Metrics::default();
    for m in v
        .get("metrics")
        .and_then(JsonValue::as_arr)
        .ok_or("no metrics")?
    {
        let name = m
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("metric name")?;
        let unit = m
            .get("unit")
            .and_then(JsonValue::as_str)
            .ok_or("metric unit")?;
        // Units come from a fixed vocabulary; map back to the static str.
        let unit = UNITS
            .into_iter()
            .find(|u| *u == unit)
            .ok_or_else(|| format!("unknown unit `{unit}`"))?;
        metrics.put(name, unit, num(m, "value")?, num(m, "samples")? as usize);
    }
    Ok(ChildResult {
        prep_s: v
            .get("prep_s")
            .and_then(JsonValue::as_arr)
            .ok_or("child output lacks `prep_s`")?
            .iter()
            .filter_map(JsonValue::as_f64)
            .collect(),
        warmup_s: num(&v, "warmup_s")?,
        attempted: num(&v, "attempted")? as u64,
        failed: num(&v, "failed")? as u64,
        failures: v
            .get("failures")
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|f| f.as_str().map(String::from))
            .collect(),
        metrics,
    })
}

const UNITS: [&str; 8] = ["s", "ms", "1/s", "MiB", "MB/s", "bytes", "count", "ratio"];

/// The repository revision, when the run directory is a git checkout.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn parent(opts: &Opts) -> Result<i32, String> {
    let w = opts.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "run: workload={} seed={} seconds={} trace={} nproc={nproc} revision={} profile={profile}",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        git_revision(),
    );
    let dir = PathBuf::from(RUN_ROOT).join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = measure(opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(opts: &Opts, dir: &Path) -> Result<i32, String> {
    let w = opts.workload;
    // Set-up, repeated (and again after the measured phase): its median
    // is part of `setup_s`, and every repeat must produce the same inputs.
    let (min_reps, min_secs, max_reps) = if opts.tiny { (1, 0.0, 1) } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut prints = Vec::new();
    while setup.len() < min_reps || (setup.len() < max_reps && setup.iter().sum::<f64>() < min_secs)
    {
        let t0 = Instant::now();
        prints.push(w.setup(dir, opts.seed, opts.tiny)?);
        setup.push(t0.elapsed().as_secs_f64());
    }

    // The measured phase, in a child process.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--child".as_ref(), dir.as_os_str()])
        // Dist sockets go to the run directory; workers re-enter this
        // binary; thread and worker counts come from the workload alone.
        .env("TMPDIR", dir)
        .env_remove(mrlr_mapreduce::dist::worker::WORKER_BIN_ENV)
        .env_remove("MRLR_THREADS")
        .env_remove("MRLR_DIST_WORKERS")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.tiny {
        cmd.arg("--tiny");
    }
    let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    if !output.status.success() {
        for l in &lines {
            println!("{l}");
        }
        return Err(format!("measured phase failed: {}", output.status));
    }
    let child = parse_child(last)?;
    for l in &lines {
        println!("{l}");
    }
    for _ in 0..setup.len() {
        let t0 = Instant::now();
        prints.push(w.setup(dir, opts.seed, opts.tiny)?);
        setup.push(t0.elapsed().as_secs_f64());
    }

    let mut failed = child.failed;
    let mut failures = child.failures;
    if !prints.windows(2).all(|p| p[0] == p[1]) {
        failed += 1;
        failures.push("set-up repeats produced different inputs".into());
    }
    let mut metrics = child.metrics;
    // Both parts are medians of repeats; the warm-up job is one cold
    // sample and is printed on its own.
    let setup_s = median(&setup) + median(&child.prep_s);
    metrics.put("warmup_s", "s", child.warmup_s, 1);
    let wanted: Vec<(String, &str)> = if opts.trace {
        metrics.put("workloads.gen_s", "s", median(&setup), setup.len());
        spec::per_layer()
    } else {
        metrics.put("setup_s", "s", setup_s, setup.len() + child.prep_s.len());
        spec::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };

    println!(
        "fail_share: {failed}/{} = {}",
        child.attempted,
        failed as f64 / child.attempted.max(1) as f64
    );
    for f in &failures {
        println!("failure: {f}");
    }
    let late = metrics
        .get("loadgen.late_p99_ms")
        .map_or("n/a (closed loop only)".to_string(), |v| format!("{v} ms"));
    println!("loadgen.late_p99_ms: {late}");
    for m in metrics
        .0
        .iter()
        .filter(|m| !wanted.iter().any(|(n, _)| *n == m.name))
    {
        println!(
            "info {} = {} {} (samples {})",
            m.name, m.value, m.unit, m.samples
        );
    }

    // The metric lines and the result line: exactly the catalogue for
    // this mode. A layer the workload does not exercise did no work and
    // reads 0; an end-to-end metric is never missing.
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let (value, samples) = match metrics.0.iter().find(|m| m.name == name) {
            Some(m) => (m.value, m.samples),
            None if opts.trace => (0.0, 0),
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        println!("metric {name} = {value} {unit} (samples {samples})");
        let key: &'static str = Box::leak(name.into_boxed_str());
        fields.push((
            key,
            Json::Obj(vec![("value", Json::F64(value)), ("unit", Json::str(unit))]),
        ));
    }
    let trace_file = dir.join("trace.json");
    if trace_file.exists() {
        let keep = PathBuf::from(RUN_ROOT).join(format!("trace-{}-{}.json", w.name(), opts.seed));
        if std::fs::rename(&trace_file, &keep).is_ok() {
            println!("trace: {}", keep.display());
        }
    }
    let correct = failed == 0;
    let doc = Json::Obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(child.attempted.max(1))),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(fields)),
    ]);
    println!("{}", doc.render_compact());
    Ok(if correct { 0 } else { 1 })
}
