//! Router workloads: a labelled corpus replayed through `RelayerService`,
//! open-loop at a fixed offered rate (ingest latency from each bundle's
//! due time) and closed-loop to saturation (capacity), the two kinds of
//! pass interleaved over the run.
//!
//! Each replay runs on a freshly opened router, so it starts with an
//! empty nullifier window; opening and closing routers happens outside
//! the timed passes.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use waku_node::RelayerService;
use waku_relay::{SegmentConfig, SegmentLog, StorageBackend, WakuMessage};
use waku_rln::{NullifierStore, RateCheck, RlnMessageBundle, RlnVerifier};
use waku_rln_relay::Outcome;

use crate::corpus::{bundle_key, open_router, scratch_dir, Corpus, Label, CLASSES};
use crate::loadgen::open_loop;
use crate::report::Metrics;
use crate::stats::Samples;
use crate::trace::Tracer;

/// Bundles a traced run offers in its open-loop passes at least, so that
/// a p99 of their decisions has ten samples beyond it. Untraced runs
/// report only the median and keep to their measuring time.
pub const TAIL_DECISIONS: usize = 1000;
/// Share of the run's measuring time given to open-loop passes; the
/// closed-loop passes that measure capacity take the rest. Their rate
/// swings by a third from one pass to the next on a shared 2-vCPU host,
/// so they get the larger share; the open-loop median steadies sooner.
const OPEN_SHARE: f64 = 0.3;
/// Share of a measured whole its timed parts must account for.
pub const MIN_COVERAGE: f64 = 0.9;
/// Samples each shadow-replayed layer call needs for a median.
const SHADOW_SAMPLES: usize = 20;
/// Times the shadow replay may cycle through the closed-loop passes
/// before it gives up on series that stay short.
const SHADOW_ROUNDS: usize = 10;

/// What each router call returned, in call order.
#[derive(Clone, Debug)]
pub struct Call {
    /// `Some(i)` for the ingest of entry `i`, `None` for a heartbeat.
    pub ingest: Option<usize>,
    pub now_secs: u64,
    pub started: Instant,
    pub returned: Instant,
    /// Entries decided by this call, in the order the router returned them.
    pub decided: Vec<usize>,
}

/// One corpus pass through one router.
pub struct Replay<'c> {
    corpus: &'c Corpus,
    keys: &'c [u64],
    service: RelayerService,
    bundles: Vec<Option<RlnMessageBundle>>,
    now: u64,
    pending: HashMap<u64, VecDeque<usize>>,
    outcomes: Vec<Option<Outcome>>,
    /// Decisions that matched no outstanding bundle.
    strays: usize,
    pub calls: Vec<Call>,
    /// Records a span per router call, and one per decision under it, as
    /// the calls return.
    tracer: Tracer,
}

impl<'c> Replay<'c> {
    pub fn new(corpus: &'c Corpus, keys: &'c [u64], service: RelayerService) -> Self {
        Replay {
            corpus,
            keys,
            service,
            bundles: corpus
                .entries
                .iter()
                .map(|e| Some(e.bundle.clone()))
                .collect(),
            now: 0,
            pending: HashMap::new(),
            outcomes: vec![None; corpus.entries.len()],
            strays: 0,
            calls: Vec::with_capacity(2 * corpus.entries.len()),
            tracer: Tracer::new(false),
        }
    }

    /// The same replay, recording its spans into `tracer`.
    pub fn traced(self, tracer: Tracer) -> Self {
        Replay { tracer, ..self }
    }

    /// Hands the tracer back, with this replay's spans in it.
    pub fn take_tracer(&mut self) -> Tracer {
        self.tracer.take()
    }

    pub fn service(&self) -> &RelayerService {
        &self.service
    }

    fn absorb(&mut self, decisions: Vec<waku_rln_relay::BatchDecision>) -> Vec<usize> {
        let mut ids = Vec::with_capacity(decisions.len());
        for d in decisions {
            match self
                .pending
                .get_mut(&bundle_key(&d.bundle))
                .and_then(VecDeque::pop_front)
            {
                Some(id) => {
                    self.outcomes[id] = Some(d.outcome);
                    ids.push(id);
                }
                None => self.strays += 1,
            }
        }
        ids
    }

    /// Logs one router call and records its spans.
    fn log(&mut self, call: Call) {
        let (name, request) = match call.ingest {
            Some(i) => ("node.ingest", i as u64),
            None => ("node.step", u64::MAX),
        };
        let parent = self
            .tracer
            .record(name, request, None, call.started, call.returned);
        for &id in &call.decided {
            let class = self.corpus.entries[id].label.class();
            self.tracer
                .record(class, id as u64, parent, call.returned, call.returned);
        }
        self.calls.push(call);
    }

    fn heartbeat(&mut self, now_secs: u64) -> Vec<usize> {
        let started = Instant::now();
        let decisions = self.service.step(now_secs).expect("router heartbeat");
        let returned = Instant::now();
        let decided = self.absorb(decisions);
        self.log(Call {
            ingest: None,
            now_secs,
            started,
            returned,
            decided: decided.clone(),
        });
        decided
    }

    /// Hands entry `i` to the router (after a heartbeat when its clock
    /// moved to a new second) and returns the entries decided meanwhile.
    pub fn submit(&mut self, i: usize) -> Vec<usize> {
        let now_secs = self.corpus.entries[i].now_secs;
        let mut done = Vec::new();
        if now_secs > self.now {
            self.now = now_secs;
            done = self.heartbeat(now_secs);
        }
        self.pending.entry(self.keys[i]).or_default().push_back(i);
        let bundle = self.bundles[i].take().expect("each entry submitted once");
        let started = Instant::now();
        let decisions = self
            .service
            .ingest(bundle, now_secs)
            .expect("router ingest");
        let returned = Instant::now();
        let decided = self.absorb(decisions);
        self.log(Call {
            ingest: Some(i),
            now_secs,
            started,
            returned,
            decided: decided.clone(),
        });
        done.extend(decided);
        done
    }

    /// The next second's heartbeat: flushes whatever is still queued.
    pub fn drain(&mut self) -> Vec<usize> {
        self.heartbeat(self.now + 1)
    }

    /// Durable checkpoint at the end of the pass; returns its duration.
    pub fn checkpoint(&mut self) -> Duration {
        let started = Instant::now();
        self.service
            .checkpoint(self.now + 1)
            .expect("router checkpoint");
        started.elapsed()
    }

    /// Entries whose decision differs from their label, or never came.
    pub fn wrong(&self) -> usize {
        self.corpus
            .entries
            .iter()
            .zip(&self.outcomes)
            .filter(|(e, o)| !o.as_ref().is_some_and(|o| e.label.matches(o)))
            .count()
            + self.strays
    }
}

/// Corpus, keys and the place routers live, shared by every pass.
pub struct RouterBench<'a> {
    pub corpus: &'a Corpus,
    pub keys: Vec<u64>,
    pub keys_file: PathBuf,
    pub dir: PathBuf,
    opened: usize,
}

impl<'a> RouterBench<'a> {
    pub fn new(corpus: &'a Corpus, keys_file: &Path, cache_dir: &Path) -> Self {
        RouterBench {
            corpus,
            keys: corpus
                .entries
                .iter()
                .map(|e| bundle_key(&e.bundle))
                .collect(),
            keys_file: keys_file.to_path_buf(),
            dir: scratch_dir(cache_dir, "router"),
            opened: 0,
        }
    }

    /// Opens a fresh router (untimed).
    pub fn open(&mut self) -> RelayerService {
        self.opened += 1;
        let dir = self.dir.join(format!("r{}", self.opened));
        open_router(
            &dir,
            &self.keys_file,
            &self.corpus.spec,
            &self.corpus.members,
        )
    }

    /// Closes a router and deletes its state (untimed).
    pub fn close(&mut self, replay: Replay<'_>) {
        drop(replay);
        let _ = std::fs::remove_dir_all(self.dir.join(format!("r{}", self.opened)));
    }
}

impl Drop for RouterBench<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything one run of a relay workload measured.
#[derive(Default)]
pub struct RelayReport {
    pub latency_ms: Samples,
    pub late_ms: Samples,
    pub attempted: usize,
    pub wrong: usize,
    pub classes: HashMap<&'static str, usize>,
    /// Call logs of every open-loop and every closed-loop pass, with each
    /// closed-loop pass's wall time.
    pub open_calls: Vec<Vec<Call>>,
    pub closed_calls: Vec<(Vec<Call>, Duration)>,
    pub checkpoint_ms: Samples,
}

impl RelayReport {
    fn tally(&mut self, replay: &Replay<'_>, corpus: &Corpus) {
        self.attempted += corpus.entries.len();
        self.wrong += replay.wrong();
        for e in &corpus.entries {
            *self.classes.entry(e.label.class()).or_default() += 1;
        }
    }
}

/// The measured phases of a relay run: open-loop passes at `rate_per_s`
/// for [`OPEN_SHARE`] of `seconds` and `min_decisions` offered bundles,
/// and closed-loop passes for the rest. Bundles that never get a decision
/// count as wrong; they do not prolong the run.
/// The two are interleaved, the one further from its target going next,
/// so the host's slow and fast stretches fall on both alike. Every router
/// call is recorded into `tracer` as it returns.
pub fn measure(
    bench: &mut RouterBench<'_>,
    first: RelayerService,
    rate_per_s: f64,
    seconds: f64,
    min_decisions: usize,
    tracer: &mut Tracer,
) -> RelayReport {
    let interval = Duration::from_secs_f64(1.0 / rate_per_s);
    let mut report = RelayReport::default();
    let mut first = Some(first);
    let offered = bench.corpus.entries.len();
    let open_target = OPEN_SHARE * seconds;
    let closed_target = (1.0 - OPEN_SHARE) * seconds;
    let mut open_timed = Duration::ZERO;
    loop {
        let open_progress = (open_timed.as_secs_f64() / open_target)
            .min((report.open_calls.len() * offered) as f64 / min_decisions.max(1) as f64);
        let open_done = open_progress >= 1.0;
        let closed_timed: f64 = report
            .closed_calls
            .iter()
            .map(|(_, w)| w.as_secs_f64())
            .sum();
        let closed_progress =
            (closed_timed / closed_target).min(report.closed_calls.len() as f64 / 2.0);
        if open_done && closed_progress >= 1.0 {
            return report;
        }
        if !open_done && (open_progress <= closed_progress || closed_progress >= 1.0) {
            let service = first.take().unwrap_or_else(|| bench.open());
            open_timed += open_pass(bench, service, interval, &mut report, tracer);
        } else {
            closed_pass(bench, &mut report, tracer);
        }
    }
}

/// One open-loop pass: entry `i` is due `i` intervals after the start.
/// Returns the pass's wall time.
fn open_pass(
    bench: &mut RouterBench<'_>,
    service: RelayerService,
    interval: Duration,
    report: &mut RelayReport,
    tracer: &mut Tracer,
) -> Duration {
    let corpus = bench.corpus;
    let keys = bench.keys.clone();
    let mut replay = Replay::new(corpus, &keys, service).traced(tracer.take());
    let pass = {
        let cell = std::cell::RefCell::new(&mut replay);
        open_loop(
            corpus.entries.len(),
            interval,
            |i| cell.borrow_mut().submit(i),
            || cell.borrow_mut().drain(),
        )
    };
    report
        .checkpoint_ms
        .push(replay.checkpoint().as_secs_f64() * 1e3);
    for l in &pass.latency_ms {
        if l.is_finite() {
            report.latency_ms.push(*l);
        }
    }
    report.late_ms.extend(&pass.late_ms);
    report.tally(&replay, corpus);
    report.open_calls.push(std::mem::take(&mut replay.calls));
    *tracer = replay.take_tracer();
    bench.close(replay);
    pass.wall
}

/// One closed-loop pass: every entry submitted as soon as the previous
/// call returned. Logs its calls and wall time in the report.
fn closed_pass(bench: &mut RouterBench<'_>, report: &mut RelayReport, tracer: &mut Tracer) {
    let corpus = bench.corpus;
    let service = bench.open();
    let keys = bench.keys.clone();
    let mut replay = Replay::new(corpus, &keys, service).traced(tracer.take());
    let started = Instant::now();
    for i in 0..corpus.entries.len() {
        std::hint::black_box(replay.submit(i));
    }
    replay.drain();
    let wall = started.elapsed();
    report
        .checkpoint_ms
        .push(replay.checkpoint().as_secs_f64() * 1e3);
    report.tally(&replay, corpus);
    let calls = std::mem::take(&mut replay.calls);
    *tracer = replay.take_tracer();
    bench.close(replay);
    report.closed_calls.push((calls, wall));
}

/// End-to-end metrics of an untraced relay run: the median ingest latency
/// of the open-loop passes and the capacity of the closed-loop ones.
pub fn end_to_end(report: &RelayReport, out: &mut Metrics) {
    let latency = &report.latency_ms;
    out.stat("latency_p50_ms", latency.median(), latency.len(), "ms");
    // All closed-loop decisions over all closed-loop time: the host's
    // speed moves between stretches of a run, and a total follows the mix
    // of fast and slow stretches smoothly where a median jumps between them.
    let closed = &report.closed_calls;
    let decided: usize = closed
        .iter()
        .flat_map(|(calls, _)| calls)
        .map(|c| c.decided.len())
        .sum();
    let wall: f64 = closed.iter().map(|(_, w)| w.as_secs_f64()).sum();
    out.stat(
        "throughput_per_s",
        Some(decided as f64 / wall),
        closed.len(),
        "1/s",
    );
}

/// Per-layer metrics measured from outside the router: call times from
/// the open-loop passes, coverage from the closed-loop passes, and shadow
/// calls into the verifier, nullifier store, segment log and chain on
/// inputs shaped exactly like the router's.
pub fn per_layer(
    report: &RelayReport,
    bench: &mut RouterBench<'_>,
    verifier: &RlnVerifier,
    vk: &waku_snark::VerifyingKey,
    out: &mut Metrics,
) {
    let corpus = bench.corpus;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    // Queue behaviour from the open-loop call log.
    let mut precheck_us = Samples::new();
    let mut flush_ms = Samples::new();
    let mut batch_sizes = Samples::new();
    let mut dwell_ms = Samples::new();
    let mut ingest_us = Samples::new();
    let mut step_ms = Samples::new();
    for calls in &report.open_calls {
        let mut enqueued: HashMap<usize, Instant> = HashMap::new();
        for c in calls {
            let checked: Vec<usize> = c
                .decided
                .iter()
                .copied()
                .filter(|&id| corpus.entries[id].label.proof_checked())
                .collect();
            match c.ingest {
                Some(i) => {
                    ingest_us.push(us(c.returned - c.started));
                    if corpus.entries[i].label.proof_checked() {
                        enqueued.insert(i, c.returned);
                    }
                }
                None => step_ms.push(ms(c.returned - c.started)),
            }
            if checked.is_empty() {
                if c.ingest.is_some() {
                    precheck_us.push(us(c.returned - c.started));
                }
            } else {
                flush_ms.push(ms(c.returned - c.started));
                batch_sizes.push(checked.len() as f64);
                for id in checked {
                    if let Some(at) = enqueued.remove(&id) {
                        dwell_ms.push(ms(c.returned.saturating_duration_since(at)));
                    }
                }
            }
        }
    }
    out.put("rln_relay.precheck_us", precheck_us.median(), "us");
    out.put("rln_relay.flush_ms", flush_ms.median(), "ms");
    out.put("rln_relay.batch_size_mean", batch_sizes.mean(), "count");
    out.put("rln_relay.queue_dwell_ms", dwell_ms.median(), "ms");
    out.put("node.ingest_us.p50", ingest_us.median(), "us");
    out.put("node.ingest_us.p99", ingest_us.percentile(0.99), "us");
    let latency = &report.latency_ms;
    out.stat(
        "node.decision_p99_ms",
        latency.percentile(0.99),
        latency.len(),
        "ms",
    );
    out.put("node.step_ms", step_ms.median(), "ms");
    out.put(
        "node.checkpoint_ms",
        report.checkpoint_ms.median_of_runs(),
        "ms",
    );
    out.put("loadgen.late_p99_ms", report.late_ms.percentile(0.99), "ms");

    // Coverage: router calls against the closed-loop pass wall time.
    let (covered, wall) = report
        .closed_calls
        .iter()
        .fold((0.0, 0.0), |(cov, wall), (calls, w)| {
            let sum: f64 = calls
                .iter()
                .map(|c| (c.returned - c.started).as_secs_f64())
                .sum();
            (cov + sum, wall + w.as_secs_f64())
        });
    out.put("trace.ingest_coverage", Some(covered / wall), "ratio");
    out.mismatches += usize::from(covered / wall < MIN_COVERAGE);

    for class in CLASSES {
        let n = report.classes.get(class).copied().unwrap_or(0);
        out.put(class, Some(n as f64), "count");
    }
    shadow(report, bench, verifier, vk, out);
}

/// Replays the flush groups of the closed-loop passes through standalone
/// layer calls, timing each, and cross-checks them against the router.
fn shadow(
    report: &RelayReport,
    bench: &mut RouterBench<'_>,
    verifier: &RlnVerifier,
    vk: &waku_snark::VerifyingKey,
    out: &mut Metrics,
) {
    let corpus = bench.corpus;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut batch_ms = Samples::new();
    let mut isolate_ms = Samples::new();
    let mut rate_us = Samples::new();
    let mut append_us = Samples::new();
    let mut flush_ms = Samples::new();
    let mut mismatches = 0usize;
    let store_dir = bench.dir.join("shadow-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store = SegmentLog::open(&store_dir, SegmentConfig::default()).expect("shadow store");
    // Cycle through the closed-loop passes until every series has enough
    // samples for a median, or give up and leave the short ones unmeasured.
    let enough = |s: &Samples| s.len() >= SHADOW_SAMPLES;
    let passes = report.closed_calls.len() * SHADOW_ROUNDS;
    for (calls, _) in report.closed_calls.iter().cycle().take(passes) {
        if enough(&batch_ms) && enough(&flush_ms) && (isolate_ms.is_empty() || enough(&isolate_ms))
        {
            break;
        }
        let mut nullifiers = NullifierStore::new(1);
        for c in calls {
            nullifiers.advance_to(c.now_secs);
            let batch: Vec<usize> = c
                .decided
                .iter()
                .copied()
                .filter(|&id| corpus.entries[id].label.proof_checked())
                .collect();
            if !batch.is_empty() {
                let refs: Vec<&RlnMessageBundle> =
                    batch.iter().map(|&id| &corpus.entries[id].bundle).collect();
                let started = Instant::now();
                let ok = verifier.verify_batch(&refs);
                batch_ms.push(ms(started.elapsed()));
                let expected_bad: Vec<usize> = (0..batch.len())
                    .filter(|&k| corpus.entries[batch[k]].label == Label::InvalidProof)
                    .collect();
                if ok {
                    mismatches += usize::from(!expected_bad.is_empty());
                } else {
                    let started = Instant::now();
                    let bad = verifier.isolate_invalid(&refs);
                    isolate_ms.push(ms(started.elapsed()));
                    mismatches += usize::from(bad != expected_bad);
                }
            }
            for id in batch {
                let entry = &corpus.entries[id];
                if entry.label == Label::InvalidProof {
                    continue;
                }
                let started = Instant::now();
                let verdict = nullifiers.check_bundle(&entry.bundle);
                rate_us.push(us(started.elapsed()));
                let agrees = matches!(
                    (&verdict, &entry.label),
                    (RateCheck::Fresh, Label::Relay)
                        | (RateCheck::Duplicate, Label::Duplicate)
                        | (RateCheck::Spam(_), Label::Spam(_))
                );
                mismatches += usize::from(!agrees);
                if entry.label == Label::Relay {
                    let msg = WakuMessage::new(
                        entry.bundle.payload.clone(),
                        "/perfbench/1/shadow/proto",
                        entry.bundle.epoch,
                    );
                    let started = Instant::now();
                    store.append(msg).expect("shadow append");
                    append_us.push(us(started.elapsed()));
                }
            }
            if c.ingest.is_none() {
                let started = Instant::now();
                store.flush().expect("shadow flush");
                flush_ms.push(ms(started.elapsed()));
            }
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    out.put("rln.verify_batch_ms", batch_ms.median(), "ms");
    // Honest traffic never fails a batch: no isolation time at all.
    let isolate = isolate_ms.median().or(isolate_ms.is_empty().then_some(0.0));
    out.put("rln.isolate_ms", isolate, "ms");
    // Share of the verifier's time spent on first batch checks, the rest
    // going to isolating the invalid proofs of failed batches.
    let first_checks = batch_ms.sum();
    out.put(
        "rln_relay.verify_useful_ratio",
        (!batch_ms.is_empty()).then(|| first_checks / (first_checks + isolate_ms.sum())),
        "ratio",
    );
    out.put("rln.rate_check_us", rate_us.median(), "us");
    out.put("relay.segment_append_us", append_us.median(), "us");
    out.put("relay.segment_flush_ms", flush_ms.median(), "ms");
    out.mismatches += mismatches;

    layer_micro(bench, verifier, vk, out);
}

/// Single verification, a batch-shaped Miller loop and final
/// exponentiation, and block mining on a copy of a router's chain.
fn layer_micro(
    bench: &mut RouterBench<'_>,
    verifier: &RlnVerifier,
    vk: &waku_snark::VerifyingKey,
    out: &mut Metrics,
) {
    use waku_curve::pairing::{final_exponentiation, miller_loop};
    let corpus = bench.corpus;
    let valid: Vec<&RlnMessageBundle> = corpus
        .entries
        .iter()
        .filter(|e| e.label == Label::Relay)
        .map(|e| &e.bundle)
        .take(20)
        .collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut single = Samples::new();
    for b in &valid {
        let started = Instant::now();
        let ok = verifier.verify_bundle(b);
        single.push(ms(started.elapsed()));
        out.mismatches += usize::from(!ok);
    }
    out.put("rln.verify_single_ms", single.median(), "ms");

    // 16 dynamic pairs plus the two aggregated ones, as a batch of 16 has.
    let mut pairs: Vec<_> = valid
        .iter()
        .take(16)
        .map(|b| (b.proof.a, b.proof.b))
        .collect();
    pairs.push((valid[0].proof.c, vk.gamma_g2));
    pairs.push((valid[1].proof.c, vk.delta_g2));
    let mut ml = Samples::new();
    let mut fe = Samples::new();
    for _ in 0..20 {
        let started = Instant::now();
        let f = std::hint::black_box(miller_loop(std::hint::black_box(&pairs)));
        ml.push(ms(started.elapsed()));
        let started = Instant::now();
        std::hint::black_box(final_exponentiation(&f));
        fe.push(ms(started.elapsed()));
    }
    out.put("curve.miller_loop_ms", ml.median(), "ms");
    out.put("curve.final_exp_ms", fe.median(), "ms");

    // Mining the slashing transactions a heartbeat is about to mine, on a
    // copy of the router's chain so the router itself is left untouched.
    // Honest traffic never slashes, so it has no such block to time.
    let mut mine_ms = Samples::new();
    let keys = bench.keys.clone();
    for round in 0..2 * SHADOW_ROUNDS {
        if mine_ms.len() >= SHADOW_SAMPLES || (round >= 2 && mine_ms.is_empty()) {
            break;
        }
        let service = bench.open();
        let mut replay = Replay::new(corpus, &keys, service);
        let mut now = 0;
        for i in 0..corpus.entries.len() {
            let chain = replay.service().chain();
            if corpus.entries[i].now_secs > now && !chain.mempool().is_empty() {
                let mut chain = chain.clone();
                let started = Instant::now();
                std::hint::black_box(chain.mine_block());
                mine_ms.push(ms(started.elapsed()));
            }
            now = now.max(corpus.entries[i].now_secs);
            replay.submit(i);
        }
        bench.close(replay);
    }
    let mine = mine_ms.median().or(mine_ms.is_empty().then_some(0.0));
    out.put("chain.mine_block_ms", mine, "ms");
}
