//! Relay corpora: seeded streams of message bundles, each labelled with
//! the decision a correct router must reach, plus the membership set the
//! router's chain must hold for the proofs to bind.
//!
//! Proving a corpus is input generation, not router work (about 0.2 s per
//! bundle at depth 20), so a corpus is generated once per
//! [`CorpusSpec`] and cached on disk under a name that covers every input
//! that fixes its bytes. The honest corpus doubles as the pool the attack
//! corpus is built from, so both workloads of one seed share its proofs.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use waku_arith::fields::Fr;
use waku_arith::traits::{Field, PrimeField};
use waku_chain::{Address, TxKind, ETHER};
use waku_node::{RelayerService, ServiceConfig};
use waku_rln::{Identity, RlnMessageBundle, RlnProver};
use waku_rln_relay::{BatchConfig, NodeConfig, Outcome};

/// Bump whenever generation or the file layout changes.
const CORPUS_VERSION: u32 = 2;
const MAGIC: &[u8; 8] = b"PBCORPUS";
/// First epoch of every corpus (epochs are 1 s, so also its first second).
const BASE_EPOCH: u64 = 1_000_000;
/// Epochs behind the router's clock a stale bundle claims (`Thr` is 1).
const STALE_GAP: u64 = 3;
const PAYLOAD_LEN: usize = 96;

/// The two traffic mixes a router is benchmarked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Every bundle valid and fresh.
    Honest,
    /// Valid traffic mixed with every hostile class.
    Attack,
}

impl Shape {
    fn tag(self) -> u8 {
        match self {
            Shape::Honest => 0,
            Shape::Attack => 1,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Shape::Honest => "honest",
            Shape::Attack => "attack",
        }
    }
}

/// Everything that fixes a corpus's bytes, besides the proving key (whose
/// identity the cache name adds).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CorpusSpec {
    pub seed: u64,
    pub shape: Shape,
    pub depth: usize,
    /// Honest publishers; each sends one bundle per epoch.
    pub publishers: usize,
    /// Registered double-signallers (silent in the honest shape). At most
    /// four, so honest roots stay inside the router's five-root window
    /// after every slashing removal.
    pub spammers: usize,
    pub epochs: u64,
}

impl CorpusSpec {
    /// The shape the benchmark's relay workloads use.
    pub fn standard(seed: u64, shape: Shape) -> Self {
        CorpusSpec {
            seed,
            shape,
            depth: 20,
            publishers: 16,
            spammers: 2,
            epochs: 4,
        }
    }

    /// The cache file name: every field of the spec, the format version
    /// and the identity of the proving key.
    pub fn cache_name(&self, key_id: u64) -> String {
        format!(
            "corpus-v{CORPUS_VERSION}-{}-d{}-p{}-x{}-e{}-s{}-k{key_id:016x}.bin",
            self.shape.name(),
            self.depth,
            self.publishers,
            self.spammers,
            self.epochs,
            self.seed
        )
    }

    fn honest(&self) -> Self {
        CorpusSpec {
            shape: Shape::Honest,
            ..*self
        }
    }
}

/// Metric names of the decision classes, one per [`Label`] variant.
pub const CLASSES: [&str; 6] = [
    "outcome.relay",
    "outcome.invalid_proof",
    "outcome.spam",
    "outcome.duplicate",
    "outcome.epoch_out_of_range",
    "outcome.unknown_root",
];

/// The decision a correct router reaches on a bundle.
#[derive(Clone, Debug, PartialEq)]
pub enum Label {
    Relay,
    InvalidProof,
    /// Double signal; slashing must recover this secret.
    Spam(Fr),
    Duplicate,
    EpochOutOfRange(u64),
    UnknownRoot,
}

impl Label {
    /// Whether the router's outcome is the labelled one.
    pub fn matches(&self, outcome: &Outcome) -> bool {
        match (self, outcome) {
            (Label::Relay, Outcome::Relay)
            | (Label::InvalidProof, Outcome::InvalidProof)
            | (Label::Duplicate, Outcome::Duplicate)
            | (Label::UnknownRoot, Outcome::UnknownRoot) => true,
            (Label::Spam(secret), Outcome::Spam(evidence)) => evidence.recovered_secret == *secret,
            (Label::EpochOutOfRange(a), Outcome::EpochOutOfRange(b)) => a == b,
            _ => false,
        }
    }

    /// Metric name of the outcome class.
    pub fn class(&self) -> &'static str {
        match self {
            Label::Relay => "outcome.relay",
            Label::InvalidProof => "outcome.invalid_proof",
            Label::Spam(_) => "outcome.spam",
            Label::Duplicate => "outcome.duplicate",
            Label::EpochOutOfRange(_) => "outcome.epoch_out_of_range",
            Label::UnknownRoot => "outcome.unknown_root",
        }
    }

    /// Whether the bundle reaches proof verification.
    pub fn proof_checked(&self) -> bool {
        !matches!(self, Label::EpochOutOfRange(_) | Label::UnknownRoot)
    }
}

/// One bundle, the router clock it arrives at, and its expected decision.
#[derive(Clone, Debug)]
pub struct Entry {
    pub bundle: RlnMessageBundle,
    pub now_secs: u64,
    pub label: Label,
}

/// Identifies the bundle a router decision is about. Exact replays share
/// a key; the router decides them in arrival order.
pub fn bundle_key(bundle: &RlnMessageBundle) -> u64 {
    let mut h = DefaultHasher::new();
    bundle.payload.hash(&mut h);
    bundle.epoch.hash(&mut h);
    bundle.root.to_le_bytes().hash(&mut h);
    h.finish()
}

/// A labelled bundle stream and the membership it was proven against.
#[derive(Clone, Debug)]
pub struct Corpus {
    pub spec: CorpusSpec,
    /// Commitments registered on the router's chain, in order.
    pub members: Vec<Fr>,
    pub entries: Vec<Entry>,
}

/// The router configuration every relay workload runs: depth from the
/// spec, 1 s epochs, `Thr` 1, default micro-batching, default store.
fn service_config(data_dir: &Path, spec: &CorpusSpec) -> ServiceConfig {
    let node = NodeConfig::builder()
        .tree_depth(spec.depth)
        .epoch_length(Duration::from_secs(1))
        .max_epoch_gap(1)
        .batching(BatchConfig::default())
        .build()
        .expect("valid node config");
    ServiceConfig::builder(data_dir)
        .node(node)
        .seed(spec.seed)
        .build()
        .expect("valid service config")
}

/// Opens a fresh router in `data_dir` with the proving keys from
/// `keys_file`, registers `members` on its chain and mines them, one
/// epoch before the corpus starts.
pub fn open_router(
    data_dir: &Path,
    keys_file: &Path,
    spec: &CorpusSpec,
    members: &[Fr],
) -> RelayerService {
    let _ = std::fs::remove_dir_all(data_dir);
    std::fs::create_dir_all(data_dir).expect("create router data dir");
    let keys = data_dir.join("keys.bin");
    if std::fs::hard_link(keys_file, &keys).is_err() {
        std::fs::copy(keys_file, &keys).expect("copy proving keys");
    }
    let mut service = RelayerService::open(service_config(data_dir, spec)).expect("open router");
    assert!(
        !service.recovery().cold_keygen,
        "router must load cached keys"
    );
    for (i, commitment) in members.iter().enumerate() {
        let addr = Address::from_seed(format!("perfbench member {i}").as_bytes());
        service.chain_mut().fund(addr, 10 * ETHER);
        service.chain_mut().submit(
            addr,
            TxKind::Register {
                commitment: *commitment,
            },
            100,
        );
    }
    service.step(BASE_EPOCH - 1).expect("mine registrations");
    service
}

impl Corpus {
    /// Loads the corpus for `spec` from `cache_dir`, generating (and
    /// caching) it first when absent or unreadable.
    pub fn load_or_generate(
        cache_dir: &Path,
        spec: &CorpusSpec,
        prover: &RlnProver,
        keys_file: &Path,
        key_id: u64,
    ) -> Corpus {
        if let Some(corpus) = Corpus::load(cache_dir, spec, key_id) {
            return corpus;
        }
        let corpus = match spec.shape {
            Shape::Honest => generate_honest(cache_dir, spec, prover, keys_file),
            Shape::Attack => {
                let pool =
                    Corpus::load_or_generate(cache_dir, &spec.honest(), prover, keys_file, key_id);
                generate_attack(cache_dir, spec, &pool, prover, keys_file)
            }
        };
        write_atomic(
            &cache_dir.join(spec.cache_name(key_id)),
            &corpus.encode(key_id),
        );
        corpus
    }

    /// The cached corpus for `spec`, if a readable one exists.
    pub fn load(cache_dir: &Path, spec: &CorpusSpec, key_id: u64) -> Option<Corpus> {
        let bytes = std::fs::read(cache_dir.join(spec.cache_name(key_id))).ok()?;
        Corpus::decode(&bytes, spec, key_id)
    }

    /// Byte encoding: header (spec + key id), members, entries, checksum.
    pub fn encode(&self, key_id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&CORPUS_VERSION.to_le_bytes());
        out.extend_from_slice(&self.spec.seed.to_le_bytes());
        out.push(self.spec.shape.tag());
        for v in [self.spec.depth, self.spec.publishers, self.spec.spammers] {
            out.extend_from_slice(&(v as u64).to_le_bytes());
        }
        out.extend_from_slice(&self.spec.epochs.to_le_bytes());
        out.extend_from_slice(&key_id.to_le_bytes());
        out.extend_from_slice(&(self.members.len() as u64).to_le_bytes());
        for m in &self.members {
            out.extend_from_slice(&m.to_le_bytes());
        }
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.now_secs.to_le_bytes());
            match &e.label {
                Label::Relay => out.push(0),
                Label::InvalidProof => out.push(1),
                Label::Spam(secret) => {
                    out.push(2);
                    out.extend_from_slice(&secret.to_le_bytes());
                }
                Label::Duplicate => out.push(3),
                Label::EpochOutOfRange(gap) => {
                    out.push(4);
                    out.extend_from_slice(&gap.to_le_bytes());
                }
                Label::UnknownRoot => out.push(5),
            }
            let bytes = e.bundle.to_bytes();
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses [`Corpus::encode`] output, or `None` when the bytes are
    /// damaged or were made for another spec or key.
    pub fn decode(bytes: &[u8], spec: &CorpusSpec, key_id: u64) -> Option<Corpus> {
        let (body, sum) = bytes.split_at(bytes.len().checked_sub(8)?);
        if checksum(body) != u64::from_le_bytes(sum.try_into().ok()?) {
            return None;
        }
        let mut r = Reader { bytes: body };
        if r.take(8)? != MAGIC || r.u32()? != CORPUS_VERSION {
            return None;
        }
        let seed = r.u64()?;
        let shape = match r.take(1)?[0] {
            0 => Shape::Honest,
            1 => Shape::Attack,
            _ => return None,
        };
        let read = CorpusSpec {
            seed,
            shape,
            depth: r.u64()? as usize,
            publishers: r.u64()? as usize,
            spammers: r.u64()? as usize,
            epochs: r.u64()?,
        };
        if read != *spec || r.u64()? != key_id {
            return None;
        }
        let n_members = r.len(32)?;
        let members = (0..n_members).map(|_| r.fr()).collect::<Option<Vec<_>>>()?;
        let n_entries = r.len(8)?;
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let now_secs = r.u64()?;
            let label = match r.take(1)?[0] {
                0 => Label::Relay,
                1 => Label::InvalidProof,
                2 => Label::Spam(r.fr()?),
                3 => Label::Duplicate,
                4 => Label::EpochOutOfRange(r.u64()?),
                5 => Label::UnknownRoot,
                _ => return None,
            };
            let len = r.len(1)?;
            let bundle = RlnMessageBundle::from_bytes(r.take(len)?)?;
            entries.push(Entry {
                bundle,
                now_secs,
                label,
            });
        }
        r.bytes.is_empty().then_some(Corpus {
            spec: read,
            members,
            entries,
        })
    }

    /// How many entries carry each label class.
    #[cfg(test)]
    pub fn class_count(&self, class: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.label.class() == class)
            .count()
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() < n {
            return None;
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A length field, rejected when the remaining bytes cannot hold that
    /// many items of at least `min_item` bytes.
    fn len(&mut self, min_item: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n.checked_mul(min_item)? <= self.bytes.len()).then_some(n)
    }

    fn fr(&mut self) -> Option<Fr> {
        Fr::from_le_bytes(self.take(32)?.try_into().ok()?)
    }
}

/// FNV-1a over the whole body: the cache only needs to notice damage.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn write_atomic(path: &Path, bytes: &[u8]) {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create corpus cache dir");
    }
    std::fs::write(&tmp, bytes).expect("write corpus cache");
    std::fs::rename(&tmp, path).expect("install corpus cache");
}

/// The members of a spec: publishers first, then spammers.
fn identities(spec: &CorpusSpec) -> Vec<Identity> {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x4d45_4d42_4552_5321);
    (0..spec.publishers + spec.spammers)
        .map(|_| Identity::random(&mut rng))
        .collect()
}

fn payload(rng: &mut StdRng, label: &str) -> Vec<u8> {
    let mut p = label.as_bytes().to_vec();
    while p.len() < PAYLOAD_LEN {
        p.push(b'a' + rng.gen_range(0..26u8));
    }
    p
}

/// Membership paths as the router's chain holds them after registration.
fn member_paths(
    cache_dir: &Path,
    spec: &CorpusSpec,
    keys_file: &Path,
    members: &[Identity],
) -> Vec<waku_merkle::MerklePath> {
    let dir = scratch_dir(cache_dir, "gen");
    let commitments: Vec<Fr> = members.iter().map(Identity::commitment).collect();
    let service = open_router(&dir, keys_file, spec, &commitments);
    let contract = service.chain().contract();
    let group = service.node().group();
    let paths = commitments
        .iter()
        .map(|c| {
            let index = (0..contract.len())
                .find(|&i| contract.member_at(i) == Some(*c))
                .expect("member registered");
            let path = group.path_of(index);
            assert_eq!(path.compute_root(*c), group.root(), "path binds root");
            path
        })
        .collect();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    paths
}

/// A process-unique directory under the cache for a throwaway router.
pub fn scratch_dir(cache_dir: &Path, what: &str) -> PathBuf {
    cache_dir
        .join("tmp")
        .join(format!("{what}-{}", std::process::id()))
}

fn generate_honest(
    cache_dir: &Path,
    spec: &CorpusSpec,
    prover: &RlnProver,
    keys_file: &Path,
) -> Corpus {
    let ids = identities(spec);
    let paths = member_paths(cache_dir, spec, keys_file, &ids);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x484f_4e45_5354_0001);
    let mut entries = Vec::new();
    for k in 0..spec.epochs {
        let epoch = BASE_EPOCH + k;
        let mut order: Vec<usize> = (0..spec.publishers).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for p in order {
            let msg = payload(&mut rng, &format!("s{} e{epoch} p{p} ", spec.seed));
            let bundle = prover
                .prove_message(&ids[p], &paths[p], &msg, epoch, &mut rng)
                .expect("honest proof");
            entries.push(Entry {
                bundle,
                now_secs: epoch,
                label: Label::Relay,
            });
        }
    }
    Corpus {
        spec: *spec,
        members: ids.iter().map(Identity::commitment).collect(),
        entries,
    }
}

/// The attack mix, per epoch, around the honest bundles. Invalid proofs
/// (tampered payloads) are one in four of the bundles that reach the
/// verifier, a share at which batched ingest on a 2-vCPU host falls
/// below sequential verification. Their places among the valid bundles
/// are drawn from a stream fixed per epoch index, not from the seed, so
/// every seed splits its batches the same way and pays the same bisection.
/// Replays, stale epochs and unknown roots come once per epoch each, and
/// one registered spammer double-signals on every other epoch; these
/// counts are not taken from a measurement, they only make each class
/// present.
const VALID_PER_INVALID: usize = 3;
const PLACEMENT_SEED: u64 = 0x504c_4143_4500_0000;
const REPLAYS_PER_EPOCH: usize = 1;
const STALE_PER_EPOCH: usize = 1;
const UNKNOWN_ROOT_PER_EPOCH: usize = 1;

/// Builds the attack mix on top of the honest pool: per epoch, the valid
/// bundles (honest ones, replays and the epoch's double signal) in seeded
/// order, one invalid proof per [`VALID_PER_INVALID`] of them placed among
/// them, and the precheck drops anywhere.
fn generate_attack(
    cache_dir: &Path,
    spec: &CorpusSpec,
    pool: &Corpus,
    prover: &RlnProver,
    keys_file: &Path,
) -> Corpus {
    let ids = identities(spec);
    let spam_epochs: Vec<u64> = (0..spec.epochs)
        .filter(|k| k % 2 == 1)
        .take(spec.spammers)
        .collect();
    let paths = if spam_epochs.is_empty() {
        Vec::new()
    } else {
        member_paths(cache_dir, spec, keys_file, &ids)
    };
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x4154_5441_434b_0001);
    let mut entries = Vec::new();
    for k in 0..spec.epochs {
        let now = BASE_EPOCH + k;
        let honest: Vec<Entry> = pool
            .entries
            .iter()
            .filter(|e| e.now_secs == now)
            .cloned()
            .collect();
        let pick = |rng: &mut StdRng| honest[rng.gen_range(0..honest.len())].clone();
        // Bundles that pass the proof check, in arrival order.
        let mut valid = honest.clone();
        for _ in 0..REPLAYS_PER_EPOCH {
            // A replay must arrive after its original.
            let mut dup = pick(&mut rng);
            let original = valid
                .iter()
                .position(|e| e.label == Label::Relay && e.bundle == dup.bundle)
                .expect("original in slot");
            dup.label = Label::Duplicate;
            let at = rng.gen_range(original + 1..=valid.len());
            valid.insert(at, dup);
        }
        if let Some(j) = spam_epochs.iter().position(|&e| e == k) {
            let s = spec.publishers + j;
            let signal = |text: &str, rng: &mut StdRng| {
                let msg = payload(rng, &format!("s{} e{now} spammer{j} {text} ", spec.seed));
                prover
                    .prove_message(&ids[s], &paths[s], &msg, now, rng)
                    .expect("spam proof")
            };
            let first = signal("a", &mut rng);
            let second = signal("b", &mut rng);
            let at = rng.gen_range(0..=valid.len());
            valid.insert(
                at,
                Entry {
                    bundle: first,
                    now_secs: now,
                    label: Label::Relay,
                },
            );
            let later = rng.gen_range(at + 1..=valid.len());
            valid.insert(
                later,
                Entry {
                    bundle: second,
                    now_secs: now,
                    label: Label::Spam(ids[s].secret()),
                },
            );
        }
        let mut invalid_at = vec![false; valid.len()];
        invalid_at.extend(vec![true; valid.len() / VALID_PER_INVALID]);
        invalid_at.shuffle(&mut StdRng::seed_from_u64(PLACEMENT_SEED ^ k));
        let mut valid = valid.into_iter();
        let mut slot = Vec::new();
        for invalid in invalid_at {
            if invalid {
                let mut bad = pick(&mut rng);
                bad.bundle.payload[0] ^= 0x01;
                bad.label = Label::InvalidProof;
                slot.push(bad);
            } else {
                slot.extend(valid.next());
            }
        }
        let insert_anywhere = |slot: &mut Vec<Entry>, rng: &mut StdRng, e: Entry| {
            let at = rng.gen_range(0..=slot.len());
            slot.insert(at, e);
        };
        for _ in 0..STALE_PER_EPOCH {
            let mut stale = pick(&mut rng);
            stale.bundle.epoch -= STALE_GAP;
            stale.label = Label::EpochOutOfRange(STALE_GAP);
            insert_anywhere(&mut slot, &mut rng, stale);
        }
        for _ in 0..UNKNOWN_ROOT_PER_EPOCH {
            let mut rootless = pick(&mut rng);
            rootless.bundle.root = Fr::random(&mut rng);
            rootless.label = Label::UnknownRoot;
            insert_anywhere(&mut slot, &mut rng, rootless);
        }
        entries.extend(slot);
    }
    Corpus {
        spec: *spec,
        members: pool.members.clone(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    use crate::relay::Replay;

    /// A corpus small enough to prove in a test: depth 4, four publishers.
    fn small(seed: u64, shape: Shape) -> CorpusSpec {
        CorpusSpec {
            seed,
            shape,
            depth: 4,
            publishers: 4,
            spammers: 2,
            epochs: 4,
        }
    }

    struct Fixture {
        dir: PathBuf,
        prover: RlnProver,
        key_id: u64,
    }

    impl Fixture {
        fn keys_file(&self) -> PathBuf {
            self.dir.join("keys-d4.bin")
        }

        /// Generates `spec` into a fresh cache directory named `tag`.
        fn generate(&self, tag: &str, spec: &CorpusSpec) -> (Corpus, Vec<u8>) {
            let cache = self.dir.join(tag);
            let _ = std::fs::remove_dir_all(&cache);
            let corpus = Corpus::load_or_generate(
                &cache,
                spec,
                &self.prover,
                &self.keys_file(),
                self.key_id,
            );
            let bytes = std::fs::read(cache.join(spec.cache_name(self.key_id))).expect("cached");
            let _ = std::fs::remove_dir_all(&cache);
            (corpus, bytes)
        }
    }

    fn fixture() -> &'static Fixture {
        static CELL: OnceLock<Fixture> = OnceLock::new();
        CELL.get_or_init(|| {
            let dir = std::env::temp_dir().join(format!("perfbench-corpus-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let (prover, _) = RlnProver::keygen_or_load(
                4,
                &dir.join("keys-d4.bin"),
                &mut StdRng::seed_from_u64(9),
            );
            let key_id = 0xfeed;
            Fixture {
                dir,
                prover,
                key_id,
            }
        })
    }

    #[test]
    fn same_seed_gives_a_byte_identical_corpus() {
        let f = fixture();
        for shape in [Shape::Honest, Shape::Attack] {
            let spec = small(3, shape);
            let (a, bytes_a) = f.generate(&format!("same-a-{}", shape.name()), &spec);
            let (_, bytes_b) = f.generate(&format!("same-b-{}", shape.name()), &spec);
            assert_eq!(bytes_a, bytes_b, "{shape:?}");
            assert_eq!(a.encode(f.key_id), bytes_a);
            let (_, other) = f.generate(&format!("other-{}", shape.name()), &small(4, shape));
            assert_ne!(bytes_a, other, "another seed, other bytes");
        }
    }

    #[test]
    fn cached_bytes_decode_only_for_their_spec_and_key() {
        let f = fixture();
        let spec = small(5, Shape::Honest);
        let (corpus, bytes) = f.generate("decode", &spec);
        let back = Corpus::decode(&bytes, &spec, f.key_id).expect("decodes");
        assert_eq!(back.encode(f.key_id), bytes);
        assert_eq!(back.entries.len(), corpus.entries.len());
        assert!(Corpus::decode(&bytes, &small(6, Shape::Honest), f.key_id).is_none());
        assert!(Corpus::decode(&bytes, &spec, f.key_id + 1).is_none());
        let mut damaged = bytes.clone();
        damaged[40] ^= 1;
        assert!(Corpus::decode(&damaged, &spec, f.key_id).is_none());
        assert!(Corpus::decode(&bytes[..bytes.len() - 1], &spec, f.key_id).is_none());
    }

    #[test]
    fn attack_corpus_has_every_hostile_class() {
        let f = fixture();
        let (corpus, _) = f.generate("classes", &small(7, Shape::Attack));
        for class in CLASSES {
            assert!(corpus.class_count(class) > 0, "{class}");
        }
        // Per epoch, one invalid proof per three valid bundles sent to the
        // verifier, at the same places for every seed.
        let invalid_places = |corpus: &Corpus| -> Vec<Vec<usize>> {
            (0..corpus.spec.epochs)
                .map(|k| {
                    let checked: Vec<&Label> = corpus
                        .entries
                        .iter()
                        .filter(|e| e.now_secs == BASE_EPOCH + k && e.label.proof_checked())
                        .map(|e| &e.label)
                        .collect();
                    let places: Vec<usize> = (0..checked.len())
                        .filter(|&n| *checked[n] == Label::InvalidProof)
                        .collect();
                    let valid = checked.len() - places.len();
                    assert_eq!(places.len(), valid / VALID_PER_INVALID, "epoch {k}");
                    places
                })
                .collect()
        };
        let (other, _) = f.generate("classes-other", &small(8, Shape::Attack));
        assert_eq!(invalid_places(&corpus), invalid_places(&other));
        let (honest, _) = f.generate("classes-honest", &small(7, Shape::Honest));
        assert_eq!(honest.class_count("outcome.relay"), honest.entries.len());
    }

    /// Replaying a corpus through a freshly opened router yields exactly
    /// the labelled decisions, spam secrets included.
    #[test]
    fn replay_through_a_fresh_router_yields_the_labels() {
        let f = fixture();
        for shape in [Shape::Honest, Shape::Attack] {
            let spec = small(11, shape);
            let (corpus, _) = f.generate(&format!("replay-{}", shape.name()), &spec);
            let keys: Vec<u64> = corpus
                .entries
                .iter()
                .map(|e| bundle_key(&e.bundle))
                .collect();
            for round in 0..2 {
                let dir = f.dir.join(format!("router-{}-{round}", shape.name()));
                let service = open_router(&dir, &f.keys_file(), &spec, &corpus.members);
                let mut replay = Replay::new(&corpus, &keys, service);
                for i in 0..corpus.entries.len() {
                    replay.submit(i);
                }
                replay.drain();
                assert_eq!(replay.wrong(), 0, "{shape:?} round {round}");
                drop(replay);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn cache_name_covers_every_field_and_the_key() {
        let base = CorpusSpec::standard(7, Shape::Honest);
        let variants = [
            CorpusSpec { seed: 8, ..base },
            CorpusSpec {
                shape: Shape::Attack,
                ..base
            },
            CorpusSpec { depth: 21, ..base },
            CorpusSpec {
                publishers: 17,
                ..base
            },
            CorpusSpec {
                spammers: 3,
                ..base
            },
            CorpusSpec { epochs: 7, ..base },
        ];
        let name = base.cache_name(1);
        assert_ne!(name, base.cache_name(2), "key identity");
        for v in variants {
            assert_ne!(name, v.cache_name(1), "{v:?}");
        }
        assert!(name.contains(&format!("v{CORPUS_VERSION}")));
    }

    #[test]
    fn reader_rejects_lengths_the_bytes_cannot_hold() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        assert_eq!(Reader { bytes: &bytes }.len(1), None);
        let mut ok = 2u64.to_le_bytes().to_vec();
        ok.extend_from_slice(&[0; 16]);
        assert_eq!(Reader { bytes: &ok }.len(8), Some(2));
    }

    #[test]
    fn checksum_notices_a_flipped_bit() {
        let a = checksum(b"corpus bytes");
        assert_ne!(a, checksum(b"corpus bytez"));
    }
}
