//! Sender workload: one client proving messages back to back, alternating
//! tree depths 20 and 32, with both keys loaded from a warm key cache.
//! Every proof is verified outside the timed call.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_arith::fields::Fr;
use waku_arith::traits::Field;
use waku_curve::msm::{msm, msm_chunked};
use waku_merkle::MerklePath;
use waku_rln::nullifier::{derive, external_nullifier, message_hash};
use waku_rln::{Identity, RlnProver, RlnVerifier};
use waku_snark::{qap, ConstraintSystem, WitnessSolver};

use crate::report::Metrics;
use crate::stats::Samples;
use crate::trace::Tracer;

pub const DEPTHS: [usize; 2] = [20, 32];
/// Rounds (one proof at each depth) a run takes at least, so each
/// median has ten samples above it.
pub const MIN_ROUNDS: usize = 20;

/// One depth's keys and a member to prove for.
pub struct Sender {
    pub depth: usize,
    pub prover: RlnProver,
    pub verifier: RlnVerifier,
    pub identity: Identity,
    /// A membership path with seeded siblings: a depth-32 tree cannot be
    /// held densely, and the prover only needs the path.
    pub path: MerklePath,
}

impl Sender {
    pub fn new(depth: usize, prover: RlnProver, verifier: RlnVerifier, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ (depth as u64) << 32);
        let identity = Identity::random(&mut rng);
        let siblings = (0..depth).map(|_| Fr::random(&mut rng)).collect();
        let index = u64::from(rand::Rng::gen::<u32>(&mut rng)) & ((1u64 << depth.min(32)) - 1);
        Sender {
            depth,
            prover,
            verifier,
            identity,
            path: MerklePath { index, siblings },
        }
    }
}

/// Proving latencies of one run: per depth, and per round of one proof at
/// depth 20 followed by one at depth 32, both verified.
pub struct PublishReport {
    pub prove_ms: [Samples; 2],
    pub round_ms: Samples,
    /// Verified proofs over the seconds spent proving them all.
    pub proofs_per_s: f64,
    pub attempted: usize,
    pub failed: usize,
}

/// Wall time after which [`measure`] stops waiting for verified proofs,
/// so a broken prover ends the run with failures and unmeasured metrics
/// instead of proving forever.
fn give_up_after(seconds: f64) -> Duration {
    Duration::from_secs_f64(2.0 * seconds + 10.0)
}

/// Proves alternately at each depth until `seconds` of proving have been
/// measured and [`MIN_ROUNDS`] rounds verified, or until [`give_up_after`]
/// when proofs keep failing.
pub fn measure(
    senders: &[Sender; 2],
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> PublishReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5055_424c_4953_4801);
    let mut report = PublishReport {
        prove_ms: [Samples::new(), Samples::new()],
        round_ms: Samples::new(),
        proofs_per_s: 0.0,
        attempted: 0,
        failed: 0,
    };
    let began = Instant::now();
    let mut timed = 0.0;
    let mut k: u64 = 0;
    // The depth-20 half of the round under way, if it verified.
    let mut half: Option<f64> = None;
    while (timed < seconds || report.round_ms.len() < MIN_ROUNDS || which_next(k) != 0)
        && began.elapsed() < give_up_after(seconds)
    {
        let which = which_next(k);
        let sender = &senders[which];
        let payload = format!("perfbench publish seed {seed} message {k}");
        let epoch = 1_000_000 + k;
        let started = Instant::now();
        let bundle = sender.prover.prove_message(
            &sender.identity,
            &sender.path,
            payload.as_bytes(),
            epoch,
            &mut rng,
        );
        let took = started.elapsed();
        let name = if which == 0 {
            "rln.prove_message.d20"
        } else {
            "rln.prove_message.d32"
        };
        tracer.record(name, k, None, started, started + took);
        timed += took.as_secs_f64();
        report.attempted += 1;
        let ok = bundle.is_ok_and(|b| sender.verifier.verify_bundle(&b));
        let ms = took.as_secs_f64() * 1e3;
        if ok {
            report.prove_ms[which].push(ms);
        } else {
            report.failed += 1;
        }
        match (which, half.take()) {
            (0, _) if ok => half = Some(ms),
            (1, Some(first)) if ok => report.round_ms.push(first + ms),
            _ => {}
        }
        k += 1;
    }
    let verified = report.attempted - report.failed;
    report.proofs_per_s = verified as f64 / timed;
    report
}

/// Index into [`DEPTHS`] of proof `k`: the two depths alternate.
fn which_next(k: u64) -> usize {
    (k % 2) as usize
}

/// A round's median latency, and verified proofs per second of proving.
pub fn end_to_end(report: &PublishReport, out: &mut Metrics) {
    let rounds = &report.round_ms;
    out.stat("latency_p50_ms", rounds.median(), rounds.len(), "ms");
    out.stat(
        "throughput_per_s",
        (report.proofs_per_s > 0.0).then_some(report.proofs_per_s),
        report.attempted - report.failed,
        "1/s",
    );
}

/// Stage times of one proof at one pool thread, measured by calling each
/// stage's public function on the inputs `groth16::prove` gives it.
struct Stages {
    witness: Samples,
    quotient: Samples,
    msm_a: Samples,
    msm_b_g2: Samples,
    msm_b_g1: Samples,
    msm_lh: Samples,
    prove: Samples,
}

/// Per-layer prover metrics for one depth, suffixed `.d20` / `.d32`.
pub fn per_layer(sender: &Sender, e2e_p50_ms: Option<f64>, samples: usize, out: &mut Metrics) {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let depth = sender.depth;
    let pk = sender.prover.proving_key();
    let template = waku_rln::circuit::build_for_setup(depth);
    let solver = WitnessSolver::analyze(&template);
    let mut rng = StdRng::seed_from_u64(0x5354_4147_4553 ^ depth as u64);
    let mut s = Stages {
        witness: Samples::new(),
        quotient: Samples::new(),
        msm_a: Samples::new(),
        msm_b_g2: Samples::new(),
        msm_b_g1: Samples::new(),
        msm_lh: Samples::new(),
        prove: Samples::new(),
    };
    waku_pool::with_threads(1, || {
        for k in 0..samples as u64 {
            let payload = format!("stage probe {k}");
            let t = Instant::now();
            let cs = bind_witness(
                &template,
                &solver,
                sender,
                payload.as_bytes(),
                2_000_000 + k,
            );
            s.witness.push(ms(t));
            let z = cs.full_assignment();
            let witness = &z[cs.num_instance()..];
            let t = Instant::now();
            let h = std::hint::black_box(qap::quotient_poly_checked(&cs).expect("satisfied"));
            s.quotient.push(ms(t));
            let t = Instant::now();
            std::hint::black_box(msm(&pk.a_query, &z));
            s.msm_a.push(ms(t));
            let t = Instant::now();
            std::hint::black_box(msm(&pk.b_g2_query, &z));
            s.msm_b_g2.push(ms(t));
            let t = Instant::now();
            std::hint::black_box(msm(&pk.b_g1_query, &z));
            s.msm_b_g1.push(ms(t));
            let t = Instant::now();
            std::hint::black_box(msm_chunked(&[
                (&pk.l_query[..], witness),
                (&pk.h_query[..], &h),
            ]));
            s.msm_lh.push(ms(t));
            let t = Instant::now();
            std::hint::black_box(waku_snark::prove(pk, &cs, &mut rng).expect("proof"));
            s.prove.push(ms(t));
        }
    });
    let d = format!(".d{depth}");
    let med = |x: &Samples| x.median();
    out.put(&format!("rln.witness_ms{d}"), med(&s.witness), "ms");
    out.put(&format!("snark.quotient_ms{d}"), med(&s.quotient), "ms");
    out.put(&format!("curve.msm_a_ms{d}"), med(&s.msm_a), "ms");
    out.put(&format!("curve.msm_b_g2_ms{d}"), med(&s.msm_b_g2), "ms");
    out.put(&format!("curve.msm_b_g1_ms{d}"), med(&s.msm_b_g1), "ms");
    out.put(&format!("curve.msm_lh_ms{d}"), med(&s.msm_lh), "ms");
    out.put(&format!("snark.prove_ms{d}"), med(&s.prove), "ms");
    let stages =
        s.quotient.sum() + s.msm_a.sum() + s.msm_b_g2.sum() + s.msm_b_g1.sum() + s.msm_lh.sum();
    let coverage = stages / s.prove.sum();
    out.put(&format!("trace.prove_coverage{d}"), Some(coverage), "ratio");
    out.mismatches += usize::from(coverage < crate::relay::MIN_COVERAGE);
    // One thread's whole prove_message (witness + Groth16) over the
    // pool-sized run's median.
    let serial = med(&s.witness).zip(med(&s.prove)).map(|(w, p)| w + p);
    out.put(
        &format!("pool.prove_speedup{d}"),
        serial.zip(e2e_p50_ms).map(|(t1, tn)| t1 / tn),
        "ratio",
    );
}

/// Rebinds the RLN circuit template to one message, as the prover does:
/// instance values first, then the free witnesses, then the solver.
fn bind_witness(
    template: &ConstraintSystem,
    solver: &WitnessSolver,
    sender: &Sender,
    payload: &[u8],
    epoch: u64,
) -> ConstraintSystem {
    let sk = sender.identity.secret();
    let x = message_hash(payload);
    let ext = external_nullifier(epoch);
    let (_, phi, y) = derive(sk, ext, x);
    let root = sender.path.compute_root(sender.identity.commitment());
    let mut cs = template.clone();
    for (k, v) in [x, ext, root, y, phi].into_iter().enumerate() {
        cs.set_instance_value(k + 1, v);
    }
    let mut free = Vec::with_capacity(1 + 2 * sender.depth);
    free.push(sk);
    for (level, sibling) in sender.path.siblings.iter().enumerate() {
        let bit = (sender.path.index >> level) & 1 == 1;
        free.push(if bit { Fr::one() } else { Fr::zero() });
        free.push(*sibling);
    }
    solver.solve(&mut cs, &free);
    cs
}
