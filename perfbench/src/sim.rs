//! Evaluation workload: the E6 RLN spam-containment scenario on the
//! in-process sharded engine, with the scale sweep's configuration at
//! 5 000 peers. The simulator checks proofs with a tagged stand-in, so
//! this workload exercises gossip dispatch, the scheduler, the pool and
//! the seen-set, and leaves Groth16 untouched.

use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_gossip::{Network, NetworkConfig};
use waku_rln::Identity;
use waku_sim::{run_scenario_with_metrics, Defense, ScenarioConfig, ScenarioReport};

use crate::report::Metrics;
use crate::stats::Samples;
use crate::trace::Tracer;

pub const PEERS: usize = 5_000;
/// Spam-delivery ceiling of the scale sweep: above it, containment broke.
const MAX_SPAM_DELIVERY: f64 = 0.6;
/// The scale sweep's own seed; a run's seed is added to it.
const SWEEP_SEED: u64 = 2024;

/// The scale sweep's scenario at `peers`, seeded from the run seed.
pub fn config(peers: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        peers,
        spammers: 5.min(peers / 10).max(1),
        duration_ms: 15_000,
        honest_interval_ms: 5_000,
        spam_interval_ms: 500,
        honest_publishers: Some(100.min(peers)),
        defense: Defense::RlnRelay {
            epoch_secs: 1,
            thr: 1,
        },
        net: NetworkConfig::builder()
            .degree(8.min(peers - 1))
            .build()
            .expect("valid net config"),
        seed: SWEEP_SEED.wrapping_add(seed),
        ..ScenarioConfig::default()
    }
}

/// Set-up for one run: the part of the scenario's construction that is
/// reachable through public functions, as every simulation starts with
/// it: one RLN identity per peer from the scenario's seeded stream, then
/// the network built and subscribed. The simulator's entry point builds
/// its own copy inside the measured call, so this one is thrown away.
pub fn setup(config: &ScenarioConfig) -> (Vec<Identity>, Network) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5CEA_11A5);
    let identities = (0..config.peers)
        .map(|_| Identity::random(&mut rng))
        .collect();
    let net_config = config
        .net
        .to_builder()
        .peers(config.peers)
        .seed(config.seed)
        .build()
        .expect("valid scenario net config");
    let mut net = Network::new(net_config);
    net.subscribe_all(1);
    (identities, net)
}

/// One simulation, timed.
pub struct SimRun {
    pub report: ScenarioReport,
    pub shards: usize,
    pub barriers: u64,
    pub started: Instant,
    pub wall_s: f64,
}

pub fn run_once(config: &ScenarioConfig) -> SimRun {
    let started = Instant::now();
    let (report, engine, _) = run_scenario_with_metrics(config);
    let wall_s = started.elapsed().as_secs_f64();
    SimRun {
        report,
        shards: engine.shards,
        barriers: engine.barriers,
        started,
        wall_s,
    }
}

/// Whole simulations back to back for about `seconds`: another one starts
/// only if it would end less than half a simulation past the budget. Each
/// simulation is recorded into `tracer` as it ends.
pub fn measure(config: &ScenarioConfig, seconds: f64, tracer: &mut Tracer) -> Vec<SimRun> {
    let mut runs = Vec::new();
    loop {
        let run = run_once(config);
        let end = run.started + Duration::from_secs_f64(run.wall_s);
        tracer.record(
            "sim.run_scenario",
            runs.len() as u64,
            None,
            run.started,
            end,
        );
        runs.push(run);
        let spent: f64 = runs.iter().map(|r| r.wall_s).sum();
        let last = runs[runs.len() - 1].wall_s;
        if spent + last > seconds + last / 2.0 {
            return runs;
        }
    }
}

/// Containment failures of a set of runs of one seed: spam delivered
/// above the ceiling, a spammer never detected, or an event count that
/// differs from the first run or from the count an earlier run of the
/// same seed and the same source (`source_digest`) recorded in
/// `record_dir`.
pub fn failures(
    config: &ScenarioConfig,
    runs: &[SimRun],
    record_dir: &Path,
    source_digest: &str,
) -> usize {
    let events = runs[0].report.events_processed;
    let record = record_dir.join(format!(
        "sim-events-p{}-s{}-{source_digest}.txt",
        config.peers, config.seed
    ));
    let earlier = std::fs::read_to_string(&record)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok());
    if earlier.is_none() {
        let _ = std::fs::create_dir_all(record_dir);
        let _ = std::fs::write(&record, events.to_string());
    }
    runs.iter()
        .filter(|r| {
            r.report.spam_delivery_ratio > MAX_SPAM_DELIVERY
                || r.report.spammers_detected != config.spammers
                || r.report.events_processed != events
                || earlier.is_some_and(|e| e != r.report.events_processed)
        })
        .count()
}

/// The median wall time of one whole simulation, and simulated events per
/// wall second over all of them.
pub fn end_to_end(runs: &[SimRun], out: &mut Metrics) {
    let walls: Samples = runs.iter().map(|r| r.wall_s * 1e3).collect();
    out.stat("latency_p50_ms", walls.median_of_runs(), runs.len(), "ms");
    let events: u64 = runs.iter().map(|r| r.report.events_processed).sum();
    let wall: f64 = runs.iter().map(|r| r.wall_s).sum();
    out.stat(
        "throughput_per_s",
        Some(events as f64 / wall),
        runs.len(),
        "1/s",
    );
}

/// Engine counters of the measured runs, and the pool's speed-up at
/// 5 000 and 1 000 peers (one pool thread against `threads`).
pub fn per_layer(config: &ScenarioConfig, runs: &[SimRun], threads: usize, out: &mut Metrics) {
    let first = &runs[0];
    out.metric(
        "gossip.events",
        first.report.events_processed as f64,
        "count",
    );
    out.metric("gossip.barriers", first.barriers as f64, "count");
    out.metric("gossip.shards", first.shards as f64, "count");
    out.metric("sim.validations", first.report.validations as f64, "count");
    out.metric("gossip.bytes_sent", first.report.bytes_sent as f64, "bytes");
    let walls: Samples = runs.iter().map(|r| r.wall_s).collect();
    let wall = walls.median_of_runs().expect("at least one run");
    out.metric(
        "sim.ns_per_event",
        wall * 1e9 / first.report.events_processed as f64,
        "ns",
    );
    let serial = waku_pool::with_threads(1, || run_once(config)).wall_s;
    out.metric("pool.sim_speedup", serial / wall, "ratio");
    let small = self::config(1_000, config.seed.wrapping_sub(SWEEP_SEED));
    let serial = waku_pool::with_threads(1, || run_once(&small)).wall_s;
    let pooled = waku_pool::with_threads(threads, || run_once(&small)).wall_s;
    out.metric("pool.sim_speedup.1k", serial / pooled, "ratio");
}
