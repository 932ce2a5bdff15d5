//! `serve-mix`: an in-process `mrlr_serve::serve` daemon with the default
//! `ServeConfig`, on a real Unix socket, driven by 2 client connections
//! with a seeded mix of three request kinds:
//!
//! * distinct-seed solves (`matching`, `mis2`, `vertex-cover`,
//!   `set-cover-f`), mostly on n = 300 instances plus a few medium ones;
//! * identical pairs sent at the same time on both connections, which the
//!   daemon can coalesce;
//! * `verify` requests for reports returned earlier in the run, which run
//!   no solver.
//!
//! Phase 1 is a closed loop on both connections and gives `jobs_per_s`
//! (the daemon's capacity). Phase 2 is an open loop at a fixed offered
//! rate, [`RATE`], and gives the latency metrics: each request is timed
//! from the moment it was due, not from when it was sent. This is the
//! only workload that goes through the serve protocol, admission, the
//! parse cache and the coalescer.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mrlr_core::api::{Backend, Instance, Registry};
use mrlr_core::io::{self, CertificateMode, TimingMode};
use mrlr_mapreduce::DetRng;
use mrlr_serve::{
    serve, Client, ClientError, RenderOpts, ReportFormat, Request, ServeConfig, SolveSpec,
    StatsSnapshot,
};

use super::{read, Outcome, Run, Tally, MU};
use crate::stats::{fnv, median, peak_rss_mb, quantile, tail_quantile};
use crate::trace::{Tracer, BENCH, JOB};

/// Offered rate of the open loop, in requests per second. The closed loop
/// measured 800 to 890 replies per second when the benchmark was defined
/// (2 vCPUs). At 400, about half of that, the host's short slowdowns
/// built queues and the open-loop p99 spread 107% between runs; at 300
/// it spread 10%.
pub const RATE: f64 = 300.0;
/// Latency limit of `serve.slo_share`, in milliseconds: about twice the
/// open-loop p99 (12 to 15 ms) measured then.
pub const SLO_MS: f64 = 25.0;
/// Solver threads per served solve. The daemon runs up to 2 solves at
/// once (2 admission slots, 2 connections) on 2 CPUs, so each runs inline
/// on its connection's thread; with 2 each, both would queue for one
/// shared 2-thread pool.
const SOLVER_THREADS: usize = 1;
/// Share of the measured seconds spent in the closed loop.
const CLOSED_SHARE: f64 = 0.4;
// The request mix below is assumed, not copied from served traffic
// (there is none to copy): solves are most requests, and identical pairs
// and verifies are frequent enough that each kind gets hundreds of
// samples a run and at least 5% of the daemon's time. Traced runs print
// the split as `info serve.request_share.*` and `serve.time_share.*`;
// when the benchmark was defined it read, as requests / time: solves
// 72% / 81%, pairs 11% / 13%, verifies 17% / 6%.

/// Ordinary requests a connection sends between two identical pairs.
const BLOCK: usize = 8;
/// Share of requests that are verifies and that hit a medium instance.
const VERIFY_SHARE: f64 = 0.2;
const MEDIUM_SHARE: f64 = 0.05;

/// `(file, spec without seed, tiny spec, keys, medium)`.
const INSTANCES: [(&str, &str, &str, &[&str], bool); 8] = [
    (
        "g0.txt",
        "densified:n=300,c=0.4",
        "densified:n=60,c=0.4",
        &["matching", "mis2"],
        false,
    ),
    (
        "g1.txt",
        "densified:n=300,c=0.5",
        "densified:n=60,c=0.5",
        &["matching", "mis2"],
        false,
    ),
    (
        "v0.txt",
        "vertex-weighted:n=300,c=0.4",
        "vertex-weighted:n=60,c=0.4",
        &["vertex-cover"],
        false,
    ),
    (
        "v1.txt",
        "vertex-weighted:n=300,c=0.5",
        "vertex-weighted:n=60,c=0.5",
        &["vertex-cover"],
        false,
    ),
    (
        "s0.txt",
        "set-frequency:n=300,c=0.4,f=3",
        "set-frequency:n=60,c=0.4,f=3",
        &["set-cover-f"],
        false,
    ),
    (
        "s1.txt",
        "set-frequency:n=300,c=0.5,f=3",
        "set-frequency:n=60,c=0.5,f=3",
        &["set-cover-f"],
        false,
    ),
    (
        "gm.txt",
        "densified:n=1500,c=0.4",
        "densified:n=100,c=0.4",
        &["matching", "mis2"],
        true,
    ),
    (
        "vm.txt",
        "vertex-weighted:n=1500,c=0.4",
        "vertex-weighted:n=100,c=0.4",
        &["vertex-cover"],
        true,
    ),
];

pub fn setup(dir: &Path, seed: u64, tiny: bool) -> Result<u64, String> {
    let mut print = 0u64;
    for (i, (file, spec, tiny_spec, _, _)) in INSTANCES.iter().enumerate() {
        let spec = if tiny { tiny_spec } else { spec };
        let s = seed.wrapping_mul(31).wrapping_add(i as u64);
        print = print.rotate_left(7) ^ super::gen_file(dir, file, &format!("{spec},seed={s}"))?;
    }
    Ok(print)
}

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Solve,
    Dup,
    Verify,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Solve => "serve.solve",
            Kind::Dup => "serve.dup",
            Kind::Verify => "serve.verify",
        }
    }
}

/// A solve: instance index, key, solver seed.
type Spec = (usize, &'static str, u64);

/// Shared state of the load generator.
struct Load<'a> {
    socket: PathBuf,
    texts: &'a [String],
    seed: u64,
    /// Reports served so far: `(instance, content)`, for verifies.
    served: Mutex<Vec<(usize, String)>>,
    /// Every distinct solve and the fingerprint of what was served.
    seen: Mutex<BTreeMap<Spec, u64>>,
    tally: Mutex<Tally>,
}

/// The latency and kind of one answered request.
struct Sample {
    kind: Kind,
    /// Seconds from due (open loop) or sent (closed loop) to answer.
    latency: f64,
    ok: bool,
}

impl Load<'_> {
    fn request(&self, (inst, key, seed): Spec) -> Request {
        Request::Solve {
            spec: SolveSpec {
                algorithm: key.into(),
                backend: Backend::Shard.to_string(),
                instance_text: self.texts[inst].clone(),
                mu_bits: MU.to_bits(),
                seed,
                threads: Some(SOLVER_THREADS as u64),
                machines: None,
                workers: None,
            },
            render: RenderOpts {
                format: ReportFormat::Json,
                mask_timings: true,
                certificates_full: true,
            },
            timeout_millis: 0,
        }
    }

    /// A seeded solve spec; `n` makes the solver seed distinct.
    fn pick(&self, rng: &mut DetRng, n: u64) -> Spec {
        let medium: Vec<usize> = (0..INSTANCES.len()).filter(|&i| INSTANCES[i].4).collect();
        let small: Vec<usize> = (0..INSTANCES.len()).filter(|&i| !INSTANCES[i].4).collect();
        let pool = if rng.bernoulli(MEDIUM_SHARE) {
            &medium
        } else {
            &small
        };
        let inst = pool[rng.range_usize(pool.len())];
        let keys = INSTANCES[inst].3;
        (
            inst,
            keys[rng.range_usize(keys.len())],
            self.seed.wrapping_mul(1_000_003).wrapping_add(n),
        )
    }

    /// Sends one request and checks its answer; returns whether it
    /// succeeded.
    fn send(&self, client: &mut Client, kind: Kind, spec: Spec, rng: &mut DetRng) -> bool {
        let result = match kind {
            Kind::Solve | Kind::Dup => client
                .solve(&self.request(spec), &mut |_| {})
                .map_err(describe)
                .map(|served| {
                    let print = fnv(served.content.as_bytes());
                    let mut seen = self.seen.lock().expect("seen poisoned");
                    let agreed = *seen.entry(spec).or_insert(print) == print;
                    drop(seen);
                    let mut pool = self.served.lock().expect("pool poisoned");
                    if pool.len() < 64 {
                        pool.push((spec.0, served.content));
                    } else {
                        let at = rng.range_usize(pool.len());
                        pool[at] = (spec.0, served.content);
                    }
                    agreed
                })
                .and_then(|agreed| {
                    if agreed {
                        Ok(())
                    } else {
                        Err(format!("{spec:?}: two answers to one spec differ"))
                    }
                }),
            Kind::Verify => {
                let picked = {
                    let pool = self.served.lock().expect("pool poisoned");
                    pool.get(rng.range_usize(pool.len().max(1))).cloned()
                };
                match picked {
                    Some((inst, report)) => client
                        .verify(self.texts[inst].clone(), report)
                        .map(|_| ())
                        .map_err(describe),
                    None => Err("verify before any report was served".into()),
                }
            }
        };
        self.tally
            .lock()
            .expect("tally poisoned")
            .record(result)
            .is_some()
    }
}

fn describe(e: ClientError) -> String {
    match e {
        ClientError::Busy { .. } => format!("busy: {e}"),
        other => other.to_string(),
    }
}

/// Phase 1: both connections loop back to back; every `BLOCK` ordinary
/// requests they meet at a barrier and send one identical pair. Returns
/// samples and elapsed seconds.
fn closed_loop(load: &Load, seconds: f64, tracer: &Tracer, id0: u64) -> (Vec<Sample>, f64) {
    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let samples = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2u64)
            .map(|conn| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut rng = DetRng::derive(load.seed, &[id0, conn]);
                    let mut client = Client::connect(&load.socket).expect("connect to the daemon");
                    let mut out = Vec::new();
                    let mut n = 0u64;
                    for pair in 0u64.. {
                        for _ in 0..BLOCK {
                            n += 1;
                            let kind = if rng.bernoulli(VERIFY_SHARE) {
                                Kind::Verify
                            } else {
                                Kind::Solve
                            };
                            let spec = load.pick(&mut rng, id0 + n * 2 + conn);
                            let id = id0 + n * 2 + conn;
                            out.push(timed(
                                load,
                                tracer,
                                &mut client,
                                kind,
                                spec,
                                &mut rng,
                                id,
                                Instant::now(),
                            ));
                        }
                        if barrier.wait().is_leader() {
                            stop.store(
                                started.elapsed().as_secs_f64() >= seconds,
                                Ordering::SeqCst,
                            );
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // Both connections derive the same pair spec.
                        let mut pair_rng = DetRng::derive(load.seed, &[id0, u64::MAX, pair]);
                        let spec = load.pick(&mut pair_rng, id0 + (1 << 40) + pair);
                        let id = id0 + (1 << 41) + pair * 2 + conn;
                        out.push(timed(
                            load,
                            tracer,
                            &mut client,
                            Kind::Dup,
                            spec,
                            &mut rng,
                            id,
                            Instant::now(),
                        ));
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (samples, started.elapsed().as_secs_f64())
}

#[allow(clippy::too_many_arguments)]
fn timed(
    load: &Load,
    tracer: &Tracer,
    client: &mut Client,
    kind: Kind,
    spec: Spec,
    rng: &mut DetRng,
    id: u64,
    due: Instant,
) -> Sample {
    let ok = tracer.span(BENCH, JOB, id, || {
        tracer.span("serve", kind.span(), id, || {
            load.send(client, kind, spec, rng)
        })
    });
    Sample {
        kind,
        latency: due.elapsed().as_secs_f64(),
        ok,
    }
}

/// Phase 2: requests fall due at `RATE` per second whatever the daemon
/// does; whichever connection is free takes the next one. Returns the
/// samples, how late each was sent (seconds), and the requests due.
fn open_loop(
    load: &Load,
    seconds: f64,
    tracer: &Tracer,
    id0: u64,
) -> (Vec<Sample>, Vec<f64>, usize) {
    // The schedule: (due offset, kind, spec); a pair is two entries with
    // one due time.
    let mut rng = DetRng::derive(load.seed, &[id0, 7]);
    let total = (seconds * RATE).ceil() as usize;
    let mut schedule = Vec::with_capacity(total + 1);
    let mut i = 0usize;
    while schedule.len() < total {
        let due = i as f64 / RATE;
        if i % (BLOCK + 1) == BLOCK {
            let spec = load.pick(&mut rng, id0 + i as u64);
            schedule.push((due, Kind::Dup, spec));
            schedule.push((due, Kind::Dup, spec));
            i += 2;
        } else {
            let kind = if rng.bernoulli(VERIFY_SHARE) {
                Kind::Verify
            } else {
                Kind::Solve
            };
            schedule.push((due, kind, load.pick(&mut rng, id0 + i as u64)));
            i += 1;
        }
    }
    let next = AtomicUsize::new(0);
    let started = Instant::now() + Duration::from_millis(5);
    let results = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2u64)
            .map(|conn| {
                let (next, schedule) = (&next, &schedule);
                scope.spawn(move || {
                    let mut rng = DetRng::derive(load.seed, &[id0, 9, conn]);
                    let mut client = Client::connect(&load.socket).expect("connect to the daemon");
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&(offset, kind, spec)) = schedule.get(i) else {
                            break;
                        };
                        let due = started + Duration::from_secs_f64(offset);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let late = due.elapsed().as_secs_f64();
                        let id = id0 + i as u64;
                        out.push((
                            timed(load, tracer, &mut client, kind, spec, &mut rng, id, due),
                            late,
                        ));
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let (samples, late) = results.into_iter().unzip();
    (samples, late, schedule.len())
}

fn stats(socket: &Path) -> Result<StatsSnapshot, String> {
    Client::connect(socket)
        .map_err(|e| e.to_string())?
        .stats()
        .map_err(|e| e.to_string())
}

type Daemon = JoinHandle<std::io::Result<StatsSnapshot>>;

/// Starts a daemon on `socket` and waits until it accepts a connection;
/// `None` if it did not come up within 5 s.
fn start_daemon(socket: &Path) -> Option<Daemon> {
    let daemon = {
        let cfg = ServeConfig::new(socket);
        std::thread::spawn(move || serve(cfg))
    };
    for _ in 0..5000 {
        if Client::connect(socket).is_ok() {
            return Some(daemon);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// Shuts the daemon down and waits for it: `(shutdown, exit)` results.
fn stop_daemon(socket: &Path, daemon: Daemon) -> [Result<(), String>; 2] {
    let stopped = Client::connect(socket)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
    let exit = match daemon.join() {
        Ok(exit) => exit.map(|_| ()).map_err(|e| format!("daemon: {e}")),
        Err(_) => Err("daemon thread panicked".to_string()),
    };
    [stopped, exit]
}

/// The set-up done in this process: read the instances and start the
/// daemon.
fn prepare(dir: &Path, socket: &Path) -> Result<(Vec<String>, Daemon), String> {
    let texts = INSTANCES
        .iter()
        .map(|(file, ..)| read(&dir.join(file)))
        .collect::<Result<Vec<_>, _>>()?;
    let daemon = start_daemon(socket).ok_or("the daemon did not come up")?;
    Ok((texts, daemon))
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let socket = run.dir.join("serve.sock");
    // Set-up, repeated here (each repeat stops the daemon of the one
    // before) and after the measured phase (see `PREP_REPS`).
    let mut prepared = None;
    for _ in 0..super::PREP_REPS {
        if let Some((_, daemon)) = prepared.take() {
            for stopped in stop_daemon(&socket, daemon) {
                out.tally.record(stopped);
            }
        }
        let prep = Instant::now();
        match prepare(run.dir, &socket) {
            Ok(p) => prepared = Some(p),
            Err(e) => {
                out.tally.record::<()>(Err(e));
                return out;
            }
        }
        out.prep_s.push(prep.elapsed().as_secs_f64());
    }
    let (texts, daemon) = prepared.expect("at least one set-up");
    let load = Load {
        socket: socket.clone(),
        texts: &texts,
        seed: run.seed,
        served: Mutex::new(Vec::new()),
        seen: Mutex::new(BTreeMap::new()),
        tally: Mutex::new(Tally::default()),
    };
    // Warm-up: every (instance, key) once, which also fills the parse
    // cache and the pool of reports to verify.
    let warm = Instant::now();
    let mut client = Client::connect(&socket).expect("connect to the daemon");
    let mut rng = DetRng::derive(run.seed, &[1]);
    for (inst, (.., keys, _)) in INSTANCES.iter().enumerate() {
        for (k, key) in keys.iter().enumerate() {
            load.send(
                &mut client,
                Kind::Solve,
                (inst, key, (inst * 8 + k) as u64),
                &mut rng,
            );
        }
    }
    drop(client);
    out.warmup_s = warm.elapsed().as_secs_f64();
    measure(run, &load, &mut out);
    let mut tally = load.tally.into_inner().expect("tally poisoned");
    for stopped in stop_daemon(&socket, daemon) {
        tally.record(stopped);
    }
    for _ in 0..super::PREP_REPS {
        let prep = Instant::now();
        let prepared = prepare(run.dir, &socket);
        out.prep_s.push(prep.elapsed().as_secs_f64());
        if let Some((_, daemon)) = tally.record(prepared) {
            for stopped in stop_daemon(&socket, daemon) {
                tally.record(stopped);
            }
        }
    }
    tally.attempted += out.tally.attempted;
    tally.failed += out.tally.failed;
    tally.failures.append(&mut out.tally.failures);

    // Check: every served document is byte-identical to a direct solve
    // and render of the same spec.
    let seen: Vec<(Spec, u64)> = load
        .seen
        .into_inner()
        .expect("seen poisoned")
        .into_iter()
        .collect();
    for checked in check_direct(&texts, &seen) {
        tally.record(checked);
    }
    out.tally = tally;
    out
}

/// Solves and renders every spec directly, on 2 threads, and compares
/// with the fingerprint of the served document.
fn check_direct(texts: &[String], seen: &[(Spec, u64)]) -> Vec<Result<(), String>> {
    let instances: Vec<Result<Instance, String>> = texts
        .iter()
        .map(|t| io::parse_instance(t).map_err(|e| e.to_string()))
        .collect();
    let registry = Registry::with_defaults();
    let check = |&((inst, key, seed), print): &(Spec, u64)| -> Result<(), String> {
        let instance = instances[inst].as_ref().map_err(Clone::clone)?;
        let cfg = instance.auto_config(MU, seed).with_threads(SOLVER_THREADS);
        let report = registry
            .solve_with(key, Backend::Shard, instance, &cfg)
            .map_err(|e| format!("direct solve: {e}"))?;
        let doc = io::report_json_with(&report, TimingMode::Masked, CertificateMode::Full).render();
        if fnv(doc.as_bytes()) != print {
            return Err(format!(
                "served {key} (seed {seed}) differs from the direct solve"
            ));
        }
        Ok(())
    };
    let half = seen.len() / 2;
    std::thread::scope(|scope| {
        let first = scope.spawn(|| seen[..half].iter().map(check).collect::<Vec<_>>());
        let mut out: Vec<_> = seen[half..].iter().map(check).collect();
        out.extend(first.join().expect("check thread"));
        out
    })
}

/// The two phases, end-to-end metrics, and (traced run) the per-layer
/// ones.
fn measure(run: &Run, load: &Load, out: &mut Outcome) {
    let closed_s = run.seconds * CLOSED_SHARE;
    let open_s = run.seconds - closed_s;
    let m = &mut out.metrics;
    let (open, late, due, tracer) = if run.trace {
        let off = Tracer::new(false);
        let (plain, _) = closed_loop(load, closed_s / 2.0, &off, 1 << 50);
        let on = Tracer::new(true);
        let before = stats(&load.socket);
        let (traced, _) = closed_loop(load, closed_s / 2.0, &on, 2 << 50);
        let lat = |s: &[Sample]| {
            median(
                &s.iter()
                    .filter(|s| s.ok)
                    .map(|s| s.latency)
                    .collect::<Vec<_>>(),
            )
        };
        m.put(
            "trace.overhead_share",
            "ratio",
            lat(&traced) / lat(&plain) - 1.0,
            traced.len(),
        );
        put_kind_split(m, &traced);
        let (open, late, due) = open_loop(load, open_s, &on, 3 << 50);
        let dups = traced
            .iter()
            .chain(&open)
            .filter(|s| s.kind == Kind::Dup)
            .count()
            / 2;
        put_serve_stats(m, before, stats(&load.socket), dups);
        (open, late, due, Some(on))
    } else {
        let off = Tracer::new(false);
        let (closed, elapsed) = closed_loop(load, closed_s, &off, 1 << 50);
        let ok = closed.iter().filter(|s| s.ok).count();
        m.put("jobs_per_s", "1/s", ok as f64 / elapsed, closed.len());
        let (open, late, due) = open_loop(load, open_s, &off, 3 << 50);
        (open, late, due, None)
    };

    let latencies: Vec<f64> = open.iter().filter(|s| s.ok).map(|s| s.latency).collect();
    // A failed request misses every latency limit: it counts as the
    // latest answer in the percentiles.
    let mut with_misses = latencies.clone();
    with_misses.extend(open.iter().filter(|s| !s.ok).map(|_| f64::MAX));
    let q = tail_quantile(with_misses.len());
    let tail_value = quantile(&with_misses, q);
    m.put(
        "job_p50_s",
        "s",
        quantile(&with_misses, 0.5),
        with_misses.len(),
    );
    m.put("job_tail_s", "s", tail_value, with_misses.len());
    m.put("job_tail_quantile", "ratio", q, with_misses.len());
    m.put(
        "serve.beyond_tail",
        "count",
        with_misses.iter().filter(|&&l| l > tail_value).count() as f64,
        with_misses.len(),
    );
    let within = latencies.iter().filter(|&&l| l * 1e3 <= SLO_MS).count();
    m.put(
        "serve.slo_share",
        "ratio",
        within as f64 / due.max(1) as f64,
        due,
    );
    m.put("peak_rss_mb", "MiB", peak_rss_mb(), 1);
    m.put(
        "loadgen.late_p50_ms",
        "ms",
        quantile(&late, 0.5) * 1e3,
        late.len(),
    );
    out.late_p99_ms = Some(quantile(&late, 0.99) * 1e3);
    if let Some(tracer) = tracer {
        for kind in [Kind::Solve, Kind::Dup, Kind::Verify] {
            let v: Vec<f64> = open
                .iter()
                .filter(|s| s.ok && s.kind == kind)
                .map(|s| s.latency * 1e3)
                .collect();
            let name = format!("{}_p50_ms", kind.span());
            m.put(name, "ms", median(&v), v.len());
        }
        out.tracer = Some(tracer);
    }
}

/// How the closed loop's requests and their summed latency (there about
/// the daemon's service time) split between the three kinds: the basis
/// of [`VERIFY_SHARE`], [`MEDIUM_SHARE`] and [`BLOCK`], printed as `info`
/// lines by traced runs.
fn put_kind_split(m: &mut crate::stats::Metrics, samples: &[Sample]) {
    let total: f64 = samples.iter().map(|s| s.latency).sum();
    for kind in [Kind::Solve, Kind::Dup, Kind::Verify] {
        let of_kind: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.latency)
            .collect();
        let name = &kind.span()["serve.".len()..];
        m.put(
            format!("serve.request_share.{name}"),
            "ratio",
            of_kind.len() as f64 / samples.len().max(1) as f64,
            samples.len(),
        );
        m.put(
            format!("serve.time_share.{name}"),
            "ratio",
            of_kind.iter().sum::<f64>() / total.max(f64::MIN_POSITIVE),
            samples.len(),
        );
    }
}

/// The daemon's counters over the traced phase (high-water marks are
/// daemon-lifetime); `dups` is the number of identical pairs sent.
fn put_serve_stats(
    m: &mut crate::stats::Metrics,
    before: Result<StatsSnapshot, String>,
    after: Result<StatsSnapshot, String>,
    dups: usize,
) {
    let (Ok(b), Ok(a)) = (before, after) else {
        return;
    };
    m.put(
        "serve.solver_runs",
        "count",
        (a.solver_runs - b.solver_runs) as f64,
        1,
    );
    let hits = a.coalesce_hits - b.coalesce_hits;
    m.put("serve.coalesce_hits", "count", hits as f64, 1);
    m.put(
        "serve.coalesce_share",
        "ratio",
        hits as f64 / dups.max(1) as f64,
        dups,
    );
    m.put(
        "serve.busy_rejects",
        "count",
        (a.busy_rejects - b.busy_rejects) as f64,
        1,
    );
    m.put(
        "serve.timeouts",
        "count",
        (a.timeouts - b.timeouts) as f64,
        1,
    );
    m.put(
        "serve.inflight_high_water",
        "count",
        a.inflight_high_water as f64,
        1,
    );
    m.put(
        "serve.queue_depth_high_water",
        "count",
        a.queue_depth_high_water as f64,
        1,
    );
}
