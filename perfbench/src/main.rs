//! The repository benchmark: sender, router and simulator workloads,
//! each measured end to end (untraced runs) or layer by layer (traced
//! runs, `--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <publish|relay-honest|relay-attack|sim-e6> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the root of the repository. Keys, corpora and records go
//! to `.perfbench/` there. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it is the machine fingerprint, which the record file repeats.
//! Missing keys and corpora are generated first by a child copy of this
//! program run with `--prepare 1`.

mod corpus;
mod loadgen;
mod publish;
mod relay;
mod report;
mod sim;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_rln::{RlnProver, RlnVerifier};

use crate::corpus::{Corpus, CorpusSpec, Shape};
use crate::report::{result_line, Fingerprint, Metrics, END_TO_END, PER_LAYER};
use crate::stats::Samples;
use crate::trace::Tracer;

/// Seed of the simulated trusted setup every workload's keys come from.
const KEY_SEED: u64 = 0x5045_5246_4b45_5953;
/// Set-up passes per run, at least this many and at least this long in
/// total; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 1.0;
/// The simulator's set-up is about 0.1 s of compute whose speed moves by
/// a third from one pass to the next on a shared 2-vCPU host, so its
/// median is taken over more passes.
const SIM_SETUP_MIN_SECS: f64 = 3.0;
/// Offered rates of the open-loop router workloads, near half of each
/// workload's closed-loop capacity on a 2-vCPU host.
const RATE_HONEST: f64 = 320.0;
const RATE_ATTACK: f64 = 32.0;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    Publish,
    Relay(Shape),
    Sim,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "publish" => Workload::Publish,
            "relay-honest" => Workload::Relay(Shape::Honest),
            "relay-attack" => Workload::Relay(Shape::Attack),
            "sim-e6" => Workload::Sim,
            _ => return None,
        })
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: generate this run's inputs and exit (see [`ensure_inputs`]).
    prepare: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut prepare = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" | "--prepare" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    prepare = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name: String = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        prepare,
    })
}

/// What a workload hands back: its metrics and its operation counts.
struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    tracer: Tracer,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <publish|relay-honest|relay-attack|sim-e6> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(r) if r.join("crates").is_dir() => r,
        _ => {
            eprintln!("perfbench: run from the root of the repository");
            return ExitCode::from(2);
        }
    };
    let cache = root.join(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&cache) {
        eprintln!("perfbench: cannot create {}: {e}", cache.display());
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.prepare {
        waku_pool::with_threads(threads, || prepare(&args, &cache));
        return ExitCode::SUCCESS;
    }
    let fingerprint = Fingerprint::collect(&root, threads);
    if let Err(e) = ensure_inputs(&args, &cache) {
        eprintln!("perfbench: input generation failed: {e}");
        return ExitCode::from(3);
    }
    let mut outcome = waku_pool::with_threads(threads, || {
        let tracer = Tracer::new(args.trace);
        match args.workload {
            Workload::Publish => run_publish(&args, &cache, tracer),
            Workload::Relay(shape) => run_relay(&args, &cache, shape, tracer),
            Workload::Sim => run_sim(&args, &cache, &fingerprint.source_digest, threads, tracer),
        }
    });
    let peak = peak_rss_mb();
    if args.trace {
        outcome.metrics.put(
            "error_ratio",
            Some(outcome.failed as f64 / outcome.attempted.max(1) as f64),
            "ratio",
        );
    } else {
        outcome.metrics.put("peak_rss_mb", peak, "MB");
    }
    outcome.metrics = if args.trace {
        outcome.metrics.laid_out(&PER_LAYER, true)
    } else {
        outcome.metrics.laid_out(&END_TO_END, false)
    };
    let failed = outcome.failed + outcome.metrics.mismatches;
    let missing = outcome.metrics.missing();
    if !missing.is_empty() {
        eprintln!("perfbench: not measured: {}", missing.join(", "));
    }
    let correct = failed == 0 && missing.is_empty();

    let line = result_line(correct, outcome.attempted, failed, &outcome.metrics);
    let tag = format!(
        "{}-seed{}-trace{}-{}",
        args.name,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"fingerprint\": {}, \"samples\": {}, \"result\": {line}}}\n",
        args.name,
        args.seed,
        args.seconds,
        args.trace,
        fingerprint.to_json(),
        outcome.metrics.counts_json()
    );
    let results = cache.join("results");
    let _ = std::fs::create_dir_all(&results);
    if let Err(e) = std::fs::write(results.join(format!("{tag}.json")), record) {
        eprintln!("perfbench: cannot write the result record: {e}");
    }
    if outcome.tracer.enabled() {
        let path = cache.join("traces").join(format!("{tag}.jsonl"));
        if let Err(e) = outcome.tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    println!("{}", fingerprint.to_json());
    println!("{line}");
    ExitCode::SUCCESS
}

/// High-water resident set size of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn key_file(cache: &Path, depth: usize) -> PathBuf {
    cache.join(format!("keys-d{depth}.bin"))
}

/// The depth's keys from the cache (generated and cached on first use).
fn load_keys(cache: &Path, depth: usize) -> (RlnProver, RlnVerifier) {
    let mut rng = StdRng::seed_from_u64(KEY_SEED ^ depth as u64);
    RlnProver::keygen_or_load(depth, &key_file(cache, depth), &mut rng)
}

/// Identity of a cached proving key: FNV-1a of its cache file, or `None`
/// when the key has not been generated yet.
fn key_id(cache: &Path, depth: usize) -> Option<u64> {
    let bytes = std::fs::read(key_file(cache, depth)).ok()?;
    Some(bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// Whether this run's keys and corpus are already cached.
fn inputs_ready(args: &Args, cache: &Path) -> bool {
    match args.workload {
        Workload::Publish => publish::DEPTHS.iter().all(|&d| key_id(cache, d).is_some()),
        Workload::Relay(shape) => {
            let spec = CorpusSpec::standard(args.seed, shape);
            key_id(cache, spec.depth).is_some_and(|kid| Corpus::load(cache, &spec, kid).is_some())
        }
        Workload::Sim => true,
    }
}

/// Generates missing inputs in a child process (this program with
/// `--prepare 1`), so neither the proving time nor the memory it takes
/// shows in the measured process.
fn ensure_inputs(args: &Args, cache: &Path) -> Result<(), String> {
    if inputs_ready(args, cache) {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let status = std::process::Command::new(exe)
        .args(std::env::args().skip(1))
        .args(["--prepare", "1"])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench: inputs generated in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    if !status.success() {
        return Err(format!("generator exited with {status}"));
    }
    if !inputs_ready(args, cache) {
        return Err("generator left no usable inputs".to_string());
    }
    Ok(())
}

/// Input generation: the cold key ceremony and the relay corpus.
fn prepare(args: &Args, cache: &Path) {
    match args.workload {
        Workload::Publish => {
            for depth in publish::DEPTHS {
                load_keys(cache, depth);
            }
        }
        Workload::Relay(shape) => {
            let spec = CorpusSpec::standard(args.seed, shape);
            let (prover, _) = load_keys(cache, spec.depth);
            let kid = key_id(cache, spec.depth).expect("keys cached by the load");
            Corpus::load_or_generate(cache, &spec, &prover, &key_file(cache, spec.depth), kid);
        }
        Workload::Sim => {}
    }
}

/// Runs `setup` at least [`SETUP_REPS`] times and `min_secs` in total,
/// returning the last result and the median duration in seconds.
fn timed_setup<T>(min_secs: f64, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Samples::new();
    let mut last = None;
    while secs.len() < SETUP_REPS || secs.sum() < min_secs {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        secs.push(started.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up pass"),
        secs.median_of_runs().expect("at least one set-up pass"),
    )
}

fn relative(traced: Option<f64>, untraced: Option<f64>) -> Option<f64> {
    traced.zip(untraced).map(|(t, u)| (t - u) / u)
}

fn run_publish(args: &Args, cache: &Path, mut tracer: Tracer) -> Outcome {
    let (senders, setup_s) = timed_setup(SETUP_MIN_SECS, || {
        publish::DEPTHS.map(|depth| {
            let (prover, verifier) = load_keys(cache, depth);
            publish::Sender::new(depth, prover, verifier, args.seed)
        })
    });
    let mut off = Tracer::new(false);
    let report = publish::measure(&senders, args.seed, args.seconds, &mut off);
    let mut metrics = Metrics::default();
    let (mut attempted, mut failed) = (report.attempted, report.failed);
    if args.trace {
        let traced = publish::measure(&senders, args.seed, args.seconds, &mut tracer);
        attempted += traced.attempted;
        failed += traced.failed;
        let p50 = |r: &publish::PublishReport, k: usize| r.prove_ms[k].median();
        metrics.put(
            "trace.overhead_ratio",
            relative(p50(&traced, 1), p50(&report, 1)),
            "ratio",
        );
        for (k, sender) in senders.iter().enumerate() {
            publish::per_layer(sender, p50(&report, k), publish::MIN_ROUNDS, &mut metrics);
        }
    } else {
        publish::end_to_end(&report, &mut metrics);
        metrics.metric("setup_s", setup_s, "s");
    }
    Outcome {
        metrics,
        attempted,
        failed,
        tracer,
    }
}

fn run_relay(args: &Args, cache: &Path, shape: Shape, mut tracer: Tracer) -> Outcome {
    let rate = match shape {
        Shape::Honest => RATE_HONEST,
        Shape::Attack => RATE_ATTACK,
    };
    let spec = CorpusSpec::standard(args.seed, shape);
    let kf = key_file(cache, spec.depth);
    let kid = key_id(cache, spec.depth).expect("inputs prepared");
    // Set-up: the cached corpus, and a router that loads its keys from
    // the key cache and registers the corpus's members.
    let ((corpus, first), setup_s) = timed_setup(SETUP_MIN_SECS, || {
        let corpus = Corpus::load(cache, &spec, kid).expect("inputs prepared");
        let dir = corpus::scratch_dir(cache, "setup");
        let service = corpus::open_router(&dir, &kf, &spec, &corpus.members);
        (corpus, service)
    });
    let mut bench = relay::RouterBench::new(&corpus, &kf, cache);
    let min_decisions = if args.trace { relay::TAIL_DECISIONS } else { 0 };
    let mut off = Tracer::new(false);
    let report = relay::measure(
        &mut bench,
        first,
        rate,
        args.seconds,
        min_decisions,
        &mut off,
    );
    let _ = std::fs::remove_dir_all(corpus::scratch_dir(cache, "setup"));
    let mut metrics = Metrics::default();
    let (mut attempted, mut failed) = (report.attempted, report.wrong);
    if args.trace {
        let first = bench.open();
        let traced = relay::measure(
            &mut bench,
            first,
            rate,
            args.seconds,
            min_decisions,
            &mut tracer,
        );
        attempted += traced.attempted;
        failed += traced.wrong;
        metrics.put(
            "trace.overhead_ratio",
            relative(traced.latency_ms.median(), report.latency_ms.median()),
            "ratio",
        );
        let (prover, verifier) = load_keys(cache, spec.depth);
        let vk = &prover.proving_key().vk;
        relay::per_layer(&traced, &mut bench, &verifier, vk, &mut metrics);
    } else {
        relay::end_to_end(&report, &mut metrics);
        metrics.metric("setup_s", setup_s, "s");
    }
    Outcome {
        metrics,
        attempted,
        failed,
        tracer,
    }
}

fn run_sim(
    args: &Args,
    cache: &Path,
    source_digest: &str,
    threads: usize,
    mut tracer: Tracer,
) -> Outcome {
    let config = sim::config(sim::PEERS, args.seed);
    let (built, setup_s) = timed_setup(SIM_SETUP_MIN_SECS, || sim::setup(&config));
    drop(built);
    let mut off = Tracer::new(false);
    let runs = sim::measure(&config, args.seconds, &mut off);
    let mut failed = sim::failures(&config, &runs, cache, source_digest);
    let mut attempted = runs.len();
    let mut metrics = Metrics::default();
    if args.trace {
        let traced = sim::measure(&config, args.seconds, &mut tracer);
        failed += sim::failures(&config, &traced, cache, source_digest);
        attempted += traced.len();
        let rate = |runs: &[sim::SimRun]| {
            let mut m = Metrics::default();
            sim::end_to_end(runs, &mut m);
            m.get("throughput_per_s")
        };
        metrics.put(
            "trace.overhead_ratio",
            relative(rate(&traced), rate(&runs)),
            "ratio",
        );
        sim::per_layer(&config, &traced, threads, &mut metrics);
    } else {
        sim::end_to_end(&runs, &mut metrics);
        metrics.metric("setup_s", setup_s, "s");
    }
    Outcome {
        metrics,
        attempted,
        failed,
        tracer,
    }
}
