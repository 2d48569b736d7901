//! Adversarial crash-image enumeration: the model checker's view of a
//! power failure.
//!
//! ADR's contract has three regimes for a write at crash time `t`:
//!
//! * `guaranteed_at <= t` — the entry was resident with its ready bit
//!   set; ADR drains it. It is **in** every legal post-crash image.
//! * `submitted_at > t` — the write never reached the controller; it is
//!   in **no** legal image.
//! * `submitted_at <= t < guaranteed_at` — *in flight*. The hardware
//!   makes no promise: the entry may or may not have latched when power
//!   failed, so both outcomes are legal.
//!
//! [`build_image`](crate::controller::MemoryController::build_image)
//! picks one point of that space (no in-flight entry lands — the most
//! pessimistic drain). A [`CrashSet`] instead exposes every *choice
//! group*: the data and counter records of one counter-atomic write
//! share a group — the ready-bit pairing of §5.2.2 means they land
//! atomically or not at all (FCA pairs never tear) — while each
//! unpaired plain write is a group of its own (SCA's plain data write
//! and its deferred counter write-back may tear).
//!
//! ## Serialization domains
//!
//! Choice groups are *not* independent booleans. Each guarantee point
//! is produced by one of four serialized mechanisms:
//!
//! * `Domain::Pairing` — the single ready-bit coordinator every
//!   counter-atomic pair handshakes through, one pair at a time;
//! * `Domain::DataQueue` / `Domain::CounterQueue` /
//!   `Domain::MetadataQueue` — FIFO slot acceptance into the plain
//!   data / counter / integrity-metadata write queues.
//!
//! Within one domain the guarantee points are totally ordered, so "a
//! later write latched but an earlier one did not" is physically
//! impossible: a legal image lands a **prefix** of each domain's
//! in-flight sequence. Distinct domains race independently. Dropping
//! the prefix rule produces images no hardware can emit — e.g. a later
//! pair's counter-line snapshot (which already embeds an earlier
//! pair's counter bump) landing without the earlier pair's data, which
//! would garble a line FCA in fact protects.
//!
//! [`CrashSet::enumerate_verified`] materializes the image for every
//! legal prefix combination, with two bounds that keep the space tractable:
//!
//! * **Shadow pruning** — a choice group whose every write is later
//!   overwritten by a *guaranteed* full-line write to the same target
//!   cannot affect the final image; it is fixed instead of explored.
//! * **A cap with seeded sampling** — when the legal-image count
//!   exceeds [`EnumOpts::max_images`], a deterministic splitmix64
//!   stream samples prefix cuts (always including the all-miss and
//!   all-land corners), so results are bit-identical for a fixed seed
//!   and bound.
//!
//! Images identical at the line level (e.g. two cuts whose differing
//! entries coalesce to the same bytes) are deduplicated by
//! [`NvmmImage::fingerprint`].
//!
//! ## Incremental copy-on-write walking
//!
//! Candidate images at one crash instant differ only in which in-flight
//! choice groups land, yet the original enumerator replayed the *whole*
//! journal into a fresh [`NvmmImage`] per mask. `ImageOverlay` instead
//! builds the guaranteed base image once and walks the cut schedule by
//! applying/undoing only the ops of the groups whose cut changed. Each
//! image cell (a data line, a co-located counter, a counter line, a MAC
//! line, a tree node) tracks the journal indices of its currently landed
//! writers; the visible value is always the one with the highest
//! submission index — exactly what submission-order replay produces — so
//! the walked image is bit-identical to the eager one at every step.
//! With [`NvmmImage::fingerprint`] maintained incrementally inside the
//! image, one odometer step costs O(ops of the changed group) instead of
//! O(journal length).
//!
//! The fused walk ([`CrashSet::enumerate_verified`],
//! [`CrashSet::replay_sweep`]) pairs each overlay with a
//! [`DeltaVerifier`] that re-checks only the cells a step dirtied, and
//! fans the schedule out across scoped worker threads in contiguous
//! chunks, each walked and deduplicated locally; chunks merge in
//! schedule order, so retained masks, images, verdicts and stats are
//! bit-identical to a single-threaded walk for any thread count. It is
//! the one production walk. The pre-rewrite path survives as
//! [`CrashSet::enumerate_eager`], the one differential oracle the tests
//! and the `fig_mc_perf` baseline hold the fused walk against.

use crate::addr::{CounterLineAddr, LineAddr, MacLineAddr, TreeNodeAddr};
use crate::controller::{JournalOp, JournalRecord};
use crate::integrity::{AttackVerdict, DeltaVerifier, FreshnessRef, IntegritySpec};
use crate::nvmm::NvmmImage;
use crate::parallel::run_parallel;
use crate::time::Time;
use fxhash::{FxHashMap, FxHashSet};
use nvmm_crypto::engine::EncryptionEngine;
use nvmm_crypto::mac::MacEngine;
use std::time::Instant;

/// The serialized hardware mechanism that produced a write's guarantee
/// point. In-flight landings are prefix-closed within a domain and
/// independent across domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Domain {
    /// The single ready-bit pairing coordinator (all CA pairs).
    Pairing,
    /// FIFO acceptance into the plain data write queue.
    DataQueue,
    /// FIFO acceptance into the plain counter write queue.
    CounterQueue,
    /// FIFO acceptance into the integrity-metadata (MAC/tree) write
    /// queue — plain metadata writes from metadata-cache evictions and
    /// `counter_cache_writeback()` flushes. Metadata records that ride
    /// in a counter-atomic write set belong to `Domain::Pairing`
    /// instead, like the pair they land with.
    MetadataQueue,
}

const DOMAINS: [Domain; 4] = [
    Domain::Pairing,
    Domain::DataQueue,
    Domain::CounterQueue,
    Domain::MetadataQueue,
];

/// Bounds for one enumeration. Identical opts over an identical
/// [`CrashSet`] yield identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumOpts {
    /// Maximum number of landing masks to materialize. Full enumeration
    /// of the legal-prefix space when it fits, deterministic sampling
    /// beyond.
    pub max_images: usize,
    /// Seed for the sampling stream (unused when exhaustive).
    pub seed: u64,
}

impl Default for EnumOpts {
    fn default() -> Self {
        Self {
            max_images: 256,
            seed: 0xadc0_ffee,
        }
    }
}

/// Which in-flight choice groups land: bit `i` set means group `i`
/// persisted before power was lost.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LandMask {
    bits: Vec<u64>,
    len: usize,
}

impl LandMask {
    /// The all-miss mask (no in-flight entry lands) over `len` groups.
    pub fn zeros(len: usize) -> Self {
        Self {
            bits: vec![0; len.div_ceil(64).max(1)],
            len,
        }
    }

    /// The all-land mask over `len` groups.
    pub fn ones(len: usize) -> Self {
        let mut m = Self::zeros(len);
        for i in 0..len {
            m.set(i, true);
        }
        m
    }

    /// Whether group `i` lands.
    pub fn get(&self, i: usize) -> bool {
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets whether group `i` lands.
    pub fn set(&mut self, i: usize, land: bool) {
        let (w, b) = (i / 64, i % 64);
        if land {
            self.bits[w] |= 1 << b;
        } else {
            self.bits[w] &= !(1 << b);
        }
    }

    /// Number of groups covered by this mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero groups.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indices of the groups that land, ascending.
    pub fn landed(&self) -> Vec<usize> {
        (0..self.len).filter(|&i| self.get(i)).collect()
    }

    /// Number of groups that land.
    pub fn count_landed(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// splitmix64's Weyl increment — also used to random-access the
/// sampled-schedule stream ([`CutSchedule::cuts_into`]).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How one journaled write participates in the crash state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Ready before the crash: in every legal image.
    Guaranteed,
    /// In flight: lands iff its choice group's mask bit is set.
    Choice(usize),
    /// In flight but shadowed by a later guaranteed write to the same
    /// target — landing or not yields the same image, so it is fixed
    /// (as not landing) rather than explored.
    Pruned,
}

#[derive(Debug, Clone)]
struct Entry {
    op: JournalOp,
    fate: Fate,
}

/// The set of NVMM images ADR permits for a crash at one instant.
#[derive(Debug, Clone)]
pub struct CrashSet {
    crash_time: Time,
    /// Surviving journal prefix (submitted before the crash), in
    /// submission order.
    entries: Vec<Entry>,
    /// Number of active (unpruned) choice groups.
    groups: usize,
    /// Choice groups eliminated by shadow pruning.
    pruned_groups: usize,
    /// Live group ids per serialization domain, in guarantee order; a
    /// legal mask lands a prefix of each list. One entry per
    /// (shard, [`DOMAINS`] member) in shard-major order — each sharded
    /// controller owns four independent serialization domains, and with
    /// one shard this is exactly the four [`DOMAINS`] lists. Lists may
    /// be empty.
    domain_order: Vec<Vec<usize>>,
}

/// Result of one bounded enumeration.
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// Line-level-distinct images with the (first) mask that produced
    /// each. The all-miss baseline is always `images[0]`.
    pub images: Vec<(LandMask, NvmmImage)>,
    /// Exploration accounting for reports and artifacts.
    pub stats: EnumStats,
}

/// Accounting for one enumeration, suitable for sweep-cell artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumStats {
    /// Active in-flight choice groups at the crash instant.
    pub groups: usize,
    /// Choice groups collapsed by the shadow prune.
    pub groups_pruned: usize,
    /// Serialization domains with at least one active group.
    pub domains: usize,
    /// Landing masks materialized (before image dedupe).
    pub masks_explored: u64,
    /// Line-level-distinct images among them.
    pub images_unique: usize,
    /// Masks whose image duplicated an already-seen fingerprint
    /// (`masks_explored - images_unique`).
    pub images_deduped: u64,
    /// Whether the full legal-prefix space was covered.
    pub exhaustive: bool,
}

impl CrashSet {
    /// Builds the crash state for a crash at `crash_time` from the
    /// controller's journal.
    pub(crate) fn from_journal(journal: &[JournalRecord], crash_time: Time) -> Self {
        // Pair ids are allocated per shard (each controller counts from
        // zero), so the same id on two shards names two unrelated pairs;
        // keying by (shard, pair) keeps their choice groups distinct.
        let mut pair_groups: FxHashMap<(usize, u64), usize> = FxHashMap::default();
        let mut entries: Vec<Entry> = Vec::new();
        // Per provisional group: (shard, domain, guarantee point, first
        // entry). Each shard's controller has its own pairing
        // coordinator and queues, so (shard, domain) — not domain alone
        // — names one serialized mechanism.
        let mut info: Vec<(usize, Domain, Time, usize)> = Vec::new();
        let mut max_shard = 0usize;
        for rec in journal {
            if rec.submitted_at > crash_time {
                continue;
            }
            max_shard = max_shard.max(rec.shard);
            let idx = entries.len();
            let fate = if rec.guaranteed_at <= crash_time {
                Fate::Guaranteed
            } else {
                let g = match rec.pair {
                    Some(p) => *pair_groups.entry((rec.shard, p)).or_insert_with(|| {
                        info.push((rec.shard, rec.domain, rec.guaranteed_at, idx));
                        info.len() - 1
                    }),
                    None => {
                        info.push((rec.shard, rec.domain, rec.guaranteed_at, idx));
                        info.len() - 1
                    }
                };
                Fate::Choice(g)
            };
            entries.push(Entry {
                op: rec.op.clone(),
                fate,
            });
        }

        // Shadow prune: walking backwards, an in-flight write whose
        // target is fully overwritten by a *later guaranteed* write
        // cannot influence the image. A group is pruned only when every
        // member is shadowed (a half-shadowed CA pair still matters).
        let mut shadowed: Vec<bool> = vec![false; entries.len()];
        let mut covered: Vec<JournalOp> = Vec::new();
        for (i, e) in entries.iter().enumerate().rev() {
            match e.fate {
                Fate::Guaranteed => covered.push(e.op.clone()),
                Fate::Choice(_) => {
                    shadowed[i] = covered.iter().any(|later| later.covers(&e.op));
                }
                Fate::Pruned => unreachable!("pruning happens below"),
            }
        }
        let mut group_live: Vec<bool> = vec![false; info.len()];
        for (i, e) in entries.iter().enumerate() {
            if let Fate::Choice(g) = e.fate {
                if !shadowed[i] {
                    group_live[g] = true;
                }
            }
        }
        // Renumber the live groups densely so masks stay small.
        let mut renumber: Vec<Option<usize>> = vec![None; info.len()];
        let mut live = 0usize;
        for (g, &alive) in group_live.iter().enumerate() {
            if alive {
                renumber[g] = Some(live);
                live += 1;
            }
        }
        for e in &mut entries {
            if let Fate::Choice(g) = e.fate {
                e.fate = match renumber[g] {
                    Some(n) => Fate::Choice(n),
                    None => Fate::Pruned,
                };
            }
        }
        // Guarantee order per (shard, domain) over the surviving
        // groups, shard-major. Ties (identical accept instants) fall
        // back to submission order, which is the queues' FIFO order.
        // With one shard this is exactly the four DOMAINS lists of the
        // pre-sharding checker.
        let domain_order = (0..=max_shard)
            .flat_map(|s| DOMAINS.iter().map(move |&d| (s, d)))
            .map(|(s, d)| {
                let mut in_domain: Vec<(Time, usize, usize)> = info
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(gs, gd, _, _))| gs == s && gd == d)
                    .filter_map(|(g, &(_, _, at, first))| renumber[g].map(|n| (at, first, n)))
                    .collect();
                in_domain.sort_unstable_by_key(|&(at, first, _)| (at, first));
                in_domain.into_iter().map(|(_, _, n)| n).collect()
            })
            .collect();
        Self {
            crash_time,
            entries,
            groups: live,
            pruned_groups: info.len() - live,
            domain_order,
        }
    }

    /// The crash instant this set models.
    pub fn crash_time(&self) -> Time {
        self.crash_time
    }

    /// Number of active in-flight choice groups (mask bits).
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// Choice groups collapsed by the shadow prune.
    pub fn pruned_groups(&self) -> usize {
        self.pruned_groups
    }

    /// Serialization domains with at least one active group.
    pub fn domain_count(&self) -> usize {
        self.domain_order.iter().filter(|d| !d.is_empty()).count()
    }

    /// Journal entries guaranteed at the crash instant.
    pub fn guaranteed_len(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.fate == Fate::Guaranteed)
            .count()
    }

    /// In-flight journal entries still subject to choice.
    pub fn in_flight_len(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.fate, Fate::Choice(_)))
            .count()
    }

    /// Number of legal images before dedupe: the product over domains of
    /// (in-flight groups + 1), saturating.
    pub fn legal_images(&self) -> u64 {
        self.domain_order
            .iter()
            .map(|d| d.len() as u64 + 1)
            .try_fold(1u64, |a, b| a.checked_mul(b))
            .unwrap_or(u64::MAX)
    }

    /// Whether `mask` is an image the hardware could emit: within every
    /// serialization domain the landed groups form a prefix of the
    /// guarantee order.
    pub fn is_legal(&self, mask: &LandMask) -> bool {
        self.domain_order.iter().all(|order| {
            let prefix = order.iter().take_while(|&&g| mask.get(g)).count();
            order[prefix..].iter().all(|&g| !mask.get(g))
        })
    }

    /// The mask landing the first `cuts[d]` groups of each domain.
    fn mask_from_cuts(&self, cuts: &[usize]) -> LandMask {
        let mut m = LandMask::zeros(self.groups);
        for (order, &cut) in self.domain_order.iter().zip(cuts) {
            for &g in &order[..cut] {
                m.set(g, true);
            }
        }
        m
    }

    /// Masks one legal step smaller than `mask`: each candidate clears
    /// the last landed group of one domain. Greedy descent over these
    /// stays inside the legal-image space (unlike clearing arbitrary
    /// bits).
    pub fn shrink_candidates(&self, mask: &LandMask) -> Vec<LandMask> {
        let mut out = Vec::new();
        self.shrink_candidates_into(mask, &mut out);
        out
    }

    /// [`CrashSet::shrink_candidates`] into a caller-owned buffer, so the
    /// greedy minimization loop reuses one allocation across its descent
    /// instead of building a fresh `Vec` per step.
    pub fn shrink_candidates_into(&self, mask: &LandMask, out: &mut Vec<LandMask>) {
        out.clear();
        for order in &self.domain_order {
            let prefix = order.iter().take_while(|&&g| mask.get(g)).count();
            if prefix == 0 {
                continue;
            }
            let mut m = mask.clone();
            m.set(order[prefix - 1], false);
            out.push(m);
        }
    }

    /// Materializes the image for one landing mask, applying surviving
    /// writes in submission order.
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not cover exactly [`CrashSet::group_count`]
    /// groups.
    pub fn image(&self, mask: &LandMask) -> NvmmImage {
        assert_eq!(mask.len(), self.groups, "mask/group arity mismatch");
        let mut img = NvmmImage::new();
        for e in &self.entries {
            let lands = match e.fate {
                Fate::Guaranteed => true,
                Fate::Choice(g) => mask.get(g),
                Fate::Pruned => false,
            };
            if lands {
                e.op.apply(&mut img);
            }
        }
        img
    }

    /// The ADR-pessimistic baseline (no in-flight entry lands) —
    /// identical to `MemoryController::build_image(Some(crash_time))`.
    pub fn baseline(&self) -> NvmmImage {
        self.image(&LandMask::zeros(self.groups))
    }

    /// Judges `mask`'s legal post-crash image as a *wholesale replay*
    /// against the freshness anchor `fresh` — the adversary who
    /// recorded this legal crash image off the bus and splices it back
    /// after the run moved on. Every mask this set admits is an image
    /// ADR could really have left, so a freshness-anchored policy must
    /// return [`Detected`](crate::integrity::AttackVerdict::Detected)
    /// for each of them once the current state has advanced past
    /// `crash_time` (the adversary-engine tests sweep this over the
    /// enumeration).
    pub fn replay_verdict(
        &self,
        mask: &LandMask,
        spec: crate::integrity::IntegritySpec,
        engine: &nvmm_crypto::engine::EncryptionEngine,
        mac_engine: &nvmm_crypto::mac::MacEngine,
        fresh: &crate::integrity::FreshnessRef,
    ) -> crate::integrity::AttackVerdict {
        crate::integrity::verify_image_attack_with(
            &self.image(mask),
            spec,
            engine,
            mac_engine,
            fresh,
        )
    }

    /// The cut schedule `opts` prescribes: every legal prefix
    /// combination in odometer order (domain 0 fastest) when the space
    /// fits the cap, else the two corners followed by the seeded
    /// splitmix64 stream. Both the fused and the eager enumerator walk
    /// this same schedule, so their explored masks are identical by
    /// construction. The schedule is a *decoder*, not a table — each
    /// mask's cut vector is computed on demand into a caller buffer
    /// ([`CutSchedule::cuts_into`]), so an exhaustive run over millions
    /// of legal images holds O(domains) schedule state, not
    /// O(images × domains).
    pub fn cut_schedule(&self, opts: EnumOpts) -> CutSchedule {
        let cap = opts.max_images.max(1) as u64;
        let total = self.legal_images();
        let exhaustive = total <= cap;
        let dims: Vec<usize> = self.domain_order.iter().map(Vec::len).collect();
        let n_masks = if exhaustive {
            total as usize
        } else {
            cap.max(2) as usize
        };
        CutSchedule {
            dims,
            n_masks,
            exhaustive,
            seed: opts.seed,
        }
    }

    fn stats_for(&self, sched: &CutSchedule, images_unique: usize) -> EnumStats {
        let masks_explored = sched.n_masks as u64;
        EnumStats {
            groups: self.groups,
            groups_pruned: self.pruned_groups,
            domains: self.domain_count(),
            masks_explored,
            images_unique,
            images_deduped: masks_explored - images_unique as u64,
            exhaustive: sched.exhaustive,
        }
    }

    /// How many dedupe-set slots to pre-size for `opts`.
    fn seen_capacity(&self, opts: EnumOpts) -> usize {
        self.legal_images().min(opts.max_images.max(1) as u64) as usize
    }

    /// The pre-overlay enumerator: materializes a fresh image with
    /// [`CrashSet::image`] for every mask of the same cut schedule.
    /// Retained as the one differential oracle the fused walk
    /// ([`CrashSet::enumerate_verified`]) is tested against, and as the
    /// `fig_mc_perf` baseline; also the plain way to list the images
    /// when no verdict is wanted.
    pub fn enumerate_eager(&self, opts: EnumOpts) -> Enumeration {
        let sched = self.cut_schedule(opts);
        let mut seen: FxHashSet<u128> = FxHashSet::default();
        seen.reserve(self.seen_capacity(opts));
        let mut images: Vec<(LandMask, NvmmImage)> = Vec::new();
        let mut cuts = Vec::with_capacity(sched.n_domains());
        for i in 0..sched.n_masks {
            sched.cuts_into(i, &mut cuts);
            let mask = self.mask_from_cuts(&cuts);
            let img = self.image(&mask);
            if seen.insert(img.fingerprint()) {
                images.push((mask, img));
            }
        }
        Enumeration {
            stats: self.stats_for(&sched, images.len()),
            images,
        }
    }

    /// The shared skeleton of [`CrashSet::enumerate_verified`] and
    /// [`CrashSet::replay_sweep`]: each chunk walks the schedule with a
    /// paired [`ImageOverlay`] + [`DeltaVerifier`], accumulating the
    /// cells each `goto` dirtied into a pending set and flushing them
    /// into the verifier only when a fingerprint is newly retained —
    /// most schedule steps land on already-seen images whose verdict
    /// is never read, so their re-checks would be pure waste. The
    /// deferral is sound because every re-check is a pure function of
    /// the *current* image state: as long as each cell that changed
    /// since the last flush is replayed once before `eval`, the
    /// verifier converges to the same state in any flush order.
    /// Chunks merge in schedule order, so images *and* verdicts are
    /// bit-identical to a single-threaded walk (and to the eager
    /// full-pass verifiers) for any thread count. The third return is
    /// the summed nanoseconds the chunks spent flushing and evaluating
    /// (the verify phase), so callers can report the enumerate/verify
    /// split without differencing two noisy wall-clock totals.
    fn walk_verified<R: Send>(
        &self,
        opts: EnumOpts,
        threads: usize,
        spec: IntegritySpec,
        engine: &EncryptionEngine,
        mac_engine: &MacEngine,
        eval: impl Fn(&DeltaVerifier) -> R + Sync,
    ) -> (Enumeration, Vec<R>, u64) {
        let sched = self.cut_schedule(opts);
        let threads = threads.max(1);
        let chunks = chunk_ranges(sched.n_masks(), threads);
        type Walked<R> = Vec<(u128, LandMask, NvmmImage, R)>;
        let walked: Vec<(Walked<R>, u64)> = run_parallel(threads, &chunks, |&(start, end)| {
            let mut overlay = ImageOverlay::new(self);
            let mut verifier = DeltaVerifier::new(overlay.image(), spec, engine, mac_engine);
            let mut local_seen: FxHashSet<u128> = FxHashSet::default();
            let mut out = Vec::new();
            let mut cuts = Vec::with_capacity(sched.n_domains());
            // Cells dirtied since the verifier last synced, deduped
            // (a cell that toggled five times between retained images
            // needs exactly one re-check against the current image).
            let mut pending: Vec<CellKey> = Vec::new();
            let mut pending_set: FxHashSet<CellKey> = FxHashSet::default();
            let mut verify_ns: u64 = 0;
            for i in start..end {
                sched.cuts_into(i, &mut cuts);
                overlay.goto(&cuts);
                for &cell in overlay.dirty() {
                    // A co-located counter rewrite changes how its data
                    // line decrypts — same re-check as the data half.
                    let cell = match cell {
                        CellKey::Co(l) => CellKey::Data(l),
                        other => other,
                    };
                    if pending_set.insert(cell) {
                        pending.push(cell);
                    }
                }
                let fp = overlay.image().fingerprint();
                if local_seen.insert(fp) {
                    let t0 = Instant::now();
                    for &cell in &pending {
                        match cell {
                            CellKey::Data(l) | CellKey::Co(l) => {
                                verifier.data_changed(overlay.image(), l)
                            }
                            CellKey::Ctr(c) => verifier.counter_changed(overlay.image(), c),
                            CellKey::Mac(m) => verifier.mac_changed(overlay.image(), m),
                            CellKey::Tree(t) => verifier.tree_changed(overlay.image(), t),
                        }
                    }
                    pending.clear();
                    pending_set.clear();
                    let verdict = eval(&verifier);
                    verify_ns += t0.elapsed().as_nanos() as u64;
                    out.push((fp, overlay.mask().clone(), overlay.image().clone(), verdict));
                }
            }
            (out, verify_ns)
        });
        let mut seen: FxHashSet<u128> = FxHashSet::default();
        seen.reserve(self.seen_capacity(opts));
        let mut images: Vec<(LandMask, NvmmImage)> = Vec::new();
        let mut verdicts: Vec<R> = Vec::new();
        let mut verify_ns: u64 = 0;
        for (chunk, chunk_ns) in walked {
            verify_ns += chunk_ns;
            for (fp, mask, img, r) in chunk {
                if seen.insert(fp) {
                    images.push((mask, img));
                    verdicts.push(r);
                }
            }
        }
        (
            Enumeration {
                stats: self.stats_for(&sched, images.len()),
                images,
            },
            verdicts,
            verify_ns,
        )
    }

    /// Enumerates the legal images *and* judges each against `spec`'s
    /// integrity oracle in one fused walk, re-verifying only what each
    /// schedule step's delta dirtied. `verdicts[i]` is the oracle's
    /// answer for `images[i]` — Ok/Err contents bit-identical to
    /// [`verify_image_with`](crate::integrity::verify_image_with) on
    /// the materialized image, at any `threads`.
    pub fn enumerate_verified(
        &self,
        opts: EnumOpts,
        threads: usize,
        spec: IntegritySpec,
        engine: &EncryptionEngine,
        mac_engine: &MacEngine,
    ) -> (Enumeration, Vec<Result<(), String>>) {
        let (en, verdicts, _) =
            self.enumerate_verified_timed(opts, threads, spec, engine, mac_engine);
        (en, verdicts)
    }

    /// [`CrashSet::enumerate_verified`] plus the nanoseconds the walk
    /// spent in its verify phase (flushing dirty cells into the
    /// [`DeltaVerifier`] and reading verdicts), summed across worker
    /// chunks. Enumeration work — schedule decode, overlay `goto`,
    /// fingerprint dedupe, image clones — is excluded, so the figure
    /// isolates what incremental re-verification actually costs and is
    /// directly comparable to a timed full-pass verify of the same
    /// images. With `threads > 1` the sum is aggregate worker time,
    /// not wall clock; it belongs in timing companions, never in
    /// deterministic artifacts.
    pub fn enumerate_verified_timed(
        &self,
        opts: EnumOpts,
        threads: usize,
        spec: IntegritySpec,
        engine: &EncryptionEngine,
        mac_engine: &MacEngine,
    ) -> (Enumeration, Vec<Result<(), String>>, u64) {
        self.walk_verified(
            opts,
            threads,
            spec,
            engine,
            mac_engine,
            DeltaVerifier::verdict,
        )
    }

    /// The sweep form of [`CrashSet::replay_verdict`]: judges every
    /// enumerated legal image as a wholesale replay against `fresh`,
    /// reusing one warm verifier per chunk instead of materializing and
    /// fully re-verifying each image. `verdicts[i]` — including the
    /// blame string — is bit-identical to
    /// [`verify_image_attack_with`](crate::integrity::verify_image_attack_with)
    /// on `images[i]`, at any `threads`.
    pub fn replay_sweep(
        &self,
        opts: EnumOpts,
        threads: usize,
        spec: IntegritySpec,
        engine: &EncryptionEngine,
        mac_engine: &MacEngine,
        fresh: &FreshnessRef,
    ) -> (Enumeration, Vec<AttackVerdict>) {
        let (en, verdicts, _) = self.walk_verified(opts, threads, spec, engine, mac_engine, |v| {
            v.attack_verdict(fresh)
        });
        (en, verdicts)
    }
}

/// A cut schedule over the choice domains of a [`CrashSet`]: `n_masks`
/// cut vectors of one prefix length per domain, decoded on demand.
///
/// The schedule stores only the per-domain radices (`dims`), the mask
/// count, and the sampling seed — O(domains) resident memory no matter
/// how many masks it prescribes. [`CutSchedule::cuts_into`] decodes any
/// mask index directly: mixed-radix (domain 0 fastest) when exhaustive,
/// or a random-access jump into the seeded splitmix64 stream when
/// sampled, bit-identical to walking the stream sequentially.
#[derive(Debug, Clone)]
pub struct CutSchedule {
    dims: Vec<usize>,
    n_masks: usize,
    exhaustive: bool,
    seed: u64,
}

impl CutSchedule {
    /// Number of cut vectors (masks) the schedule prescribes.
    pub fn n_masks(&self) -> usize {
        self.n_masks
    }

    /// Number of choice domains per cut vector.
    pub fn n_domains(&self) -> usize {
        self.dims.len()
    }

    /// Whether the schedule covers every legal image (odometer order)
    /// rather than a seeded sample.
    pub fn exhaustive(&self) -> bool {
        self.exhaustive
    }

    /// Decodes the `i`-th cut vector into `out` (cleared first). Panics
    /// if `i >= n_masks()`.
    pub fn cuts_into(&self, i: usize, out: &mut Vec<usize>) {
        assert!(i < self.n_masks, "mask index {i} out of schedule");
        out.clear();
        if self.exhaustive {
            // Mixed-radix decode, least-significant domain first —
            // exactly the order the original odometer visited.
            let mut rem = i as u64;
            for &k in &self.dims {
                let radix = k as u64 + 1;
                out.push((rem % radix) as usize);
                rem /= radix;
            }
        } else if i == 0 {
            // Corner: the all-miss image.
            out.extend(std::iter::repeat_n(0, self.dims.len()));
        } else if i == 1 {
            // Corner: the all-land image.
            out.extend(self.dims.iter().copied());
        } else {
            // Jump the splitmix64 stream to the draw this row starts
            // at: the state before draw `p` of a sequential walk from
            // `seed` is `seed + GAMMA * p`, so seeking is one multiply.
            let p = ((i - 2) * self.dims.len()) as u64;
            let mut state = self.seed.wrapping_add(GAMMA.wrapping_mul(p));
            for &k in &self.dims {
                out.push((splitmix64(&mut state) % (k as u64 + 1)) as usize);
            }
        }
    }
}

/// Splits `0..n` into up to `parts` contiguous, near-equal ranges.
fn chunk_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// The cell granularity the overlay applies and undoes writes at: one
/// key per independently-overwritable image entry. A [`JournalOp`]
/// touches one cell, except a co-located write (data cell plus
/// co-located-counter cell) and a packed-metadata write (counter-line
/// cell plus MAC-line cell — the packed line is one write on the
/// device but materializes both split-region entries in the image).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CellKey {
    Data(LineAddr),
    Co(LineAddr),
    Ctr(CounterLineAddr),
    Mac(MacLineAddr),
    Tree(TreeNodeAddr),
}

/// The cells `op` writes: (primary, optional co-located counter half).
fn op_cells(op: &JournalOp) -> (CellKey, Option<CellKey>) {
    match op {
        JournalOp::Plain { line, .. } | JournalOp::Encrypted { line, .. } => {
            (CellKey::Data(*line), None)
        }
        JournalOp::CoLocated { line, .. } => (CellKey::Data(*line), Some(CellKey::Co(*line))),
        JournalOp::CounterLine { cline, .. } => (CellKey::Ctr(*cline), None),
        JournalOp::MacLine { mline, .. } => (CellKey::Mac(*mline), None),
        JournalOp::TreeNode { node, .. } => (CellKey::Tree(*node), None),
        JournalOp::PackedMeta { cline, .. } => (
            CellKey::Ctr(*cline),
            Some(CellKey::Mac(MacLineAddr(cline.0))),
        ),
    }
}

/// Writes the `key` half of `op` into `img`. The data half of a
/// co-located write is exactly a `write_encrypted` — the widened line's
/// payload and ground-truth counter — while its counter half lands via
/// the cell-granular co-located setter.
fn write_cell(img: &mut NvmmImage, key: CellKey, op: &JournalOp) {
    match (key, op) {
        (CellKey::Data(_), JournalOp::Plain { line, data }) => img.write_plain(*line, *data),
        (
            CellKey::Data(_),
            JournalOp::Encrypted {
                line,
                ciphertext,
                counter,
            }
            | JournalOp::CoLocated {
                line,
                ciphertext,
                counter,
            },
        ) => img.write_encrypted(*line, *ciphertext, *counter),
        (CellKey::Co(_), JournalOp::CoLocated { line, counter, .. }) => {
            img.write_co_located_counter(*line, *counter)
        }
        (CellKey::Ctr(_), JournalOp::CounterLine { cline, counters }) => {
            img.write_counter_line(*cline, *counters)
        }
        (
            CellKey::Ctr(_),
            JournalOp::PackedMeta {
                cline, counters, ..
            },
        ) => img.write_counter_line(*cline, *counters),
        (CellKey::Mac(_), JournalOp::PackedMeta { cline, macs, .. }) => {
            img.write_mac_line(MacLineAddr(cline.0), *macs)
        }
        (CellKey::Mac(_), JournalOp::MacLine { mline, macs }) => img.write_mac_line(*mline, *macs),
        (CellKey::Tree(_), JournalOp::TreeNode { node, digests }) => {
            img.write_tree_node(*node, *digests)
        }
        _ => unreachable!("journal op does not write this cell"),
    }
}

/// Restores `key` to the never-written state.
fn clear_cell(img: &mut NvmmImage, key: CellKey) {
    match key {
        CellKey::Data(l) => img.remove_data(l),
        CellKey::Co(l) => img.remove_co_located_counter(l),
        CellKey::Ctr(c) => img.remove_counter_line(c),
        CellKey::Mac(m) => img.remove_mac_line(m),
        CellKey::Tree(t) => img.remove_tree_node(t),
    }
}

/// Per-cell landing state: the guaranteed writer (if any) plus the
/// currently landed in-flight writers, as ascending journal indices.
/// The visible value is the writer with the highest index — the same
/// winner submission-order replay produces.
#[derive(Debug, Clone, Default)]
struct CellState {
    /// Highest guaranteed journal index writing this cell, if any.
    base: Option<usize>,
    /// Landed in-flight journal indices, ascending. Tiny in practice
    /// (a cell is touched by few in-flight groups at once).
    active: Vec<usize>,
}

impl CellState {
    fn winner(&self) -> Option<usize> {
        self.active.last().copied().max(self.base)
    }
}

/// An incrementally maintained candidate image for one [`CrashSet`].
///
/// Construction replays the guaranteed entries once (the base image,
/// mask all-miss); [`ImageOverlay::goto`] then moves between cut
/// vectors by applying/undoing only the ops of the choice groups whose
/// cut changed, rewriting each touched cell from its new winning
/// journal entry. [`verify_image_with`](crate::integrity::
/// verify_image_with) and recovery read the current image through
/// [`ImageOverlay::image`] without the base ever being cloned; a clone
/// is taken only when a new fingerprint is retained for the result set.
pub(crate) struct ImageOverlay<'a> {
    set: &'a CrashSet,
    img: NvmmImage,
    cells: Vec<CellState>,
    cell_keys: Vec<CellKey>,
    /// `(cell, journal index)` touches of each choice group, in
    /// submission order.
    group_touches: Vec<Vec<(usize, usize)>>,
    cuts: Vec<usize>,
    mask: LandMask,
    /// Cells whose image value was rewritten or cleared by the latest
    /// [`ImageOverlay::goto`] (may contain duplicates) — the delta
    /// verifier's feed.
    dirty: Vec<CellKey>,
}

impl<'a> ImageOverlay<'a> {
    /// Builds the guaranteed base image (the all-miss corner) and the
    /// per-cell/per-group indexes the walk needs.
    pub(crate) fn new(set: &'a CrashSet) -> Self {
        let mut cell_ids: FxHashMap<CellKey, usize> = FxHashMap::default();
        let mut cells: Vec<CellState> = Vec::new();
        let mut cell_keys: Vec<CellKey> = Vec::new();
        let mut group_touches: Vec<Vec<(usize, usize)>> = vec![Vec::new(); set.groups];
        let mut img = NvmmImage::new();
        let mut intern = |key: CellKey, cells: &mut Vec<CellState>, keys: &mut Vec<CellKey>| {
            *cell_ids.entry(key).or_insert_with(|| {
                cells.push(CellState::default());
                keys.push(key);
                cells.len() - 1
            })
        };
        for (i, e) in set.entries.iter().enumerate() {
            let (a, b) = op_cells(&e.op);
            match e.fate {
                Fate::Guaranteed => {
                    // Entries ascend, so the last assignment wins — the
                    // base winner is the highest guaranteed index.
                    let ca = intern(a, &mut cells, &mut cell_keys);
                    cells[ca].base = Some(i);
                    if let Some(b) = b {
                        let cb = intern(b, &mut cells, &mut cell_keys);
                        cells[cb].base = Some(i);
                    }
                    e.op.apply(&mut img);
                }
                Fate::Choice(g) => {
                    let ca = intern(a, &mut cells, &mut cell_keys);
                    group_touches[g].push((ca, i));
                    if let Some(b) = b {
                        let cb = intern(b, &mut cells, &mut cell_keys);
                        group_touches[g].push((cb, i));
                    }
                }
                Fate::Pruned => {}
            }
        }
        Self {
            img,
            cells,
            cell_keys,
            group_touches,
            cuts: vec![0; set.domain_order.len()],
            mask: LandMask::zeros(set.groups),
            dirty: Vec::new(),
            set,
        }
    }

    /// Cells the latest [`ImageOverlay::goto`] changed (duplicates
    /// possible when several groups rewrote one cell).
    pub(crate) fn dirty(&self) -> &[CellKey] {
        &self.dirty
    }

    /// The current candidate image. Valid for the cut vector of the
    /// latest [`ImageOverlay::goto`] (initially the all-miss corner).
    pub(crate) fn image(&self) -> &NvmmImage {
        &self.img
    }

    /// The landing mask matching [`ImageOverlay::image`].
    pub(crate) fn mask(&self) -> &LandMask {
        &self.mask
    }

    /// Lands choice group `g`: every touched cell gains `g`'s writer
    /// indices, rewriting the cell when one becomes the new winner.
    fn apply_group(&mut self, g: usize) {
        self.mask.set(g, true);
        for t in 0..self.group_touches[g].len() {
            let (cell, entry) = self.group_touches[g][t];
            let st = &mut self.cells[cell];
            let prev = st.winner();
            if let Err(pos) = st.active.binary_search(&entry) {
                st.active.insert(pos, entry);
            }
            if prev.is_none_or(|w| entry > w) {
                write_cell(
                    &mut self.img,
                    self.cell_keys[cell],
                    &self.set.entries[entry].op,
                );
                self.dirty.push(self.cell_keys[cell]);
            }
        }
    }

    /// Reverts choice group `g`: cells that lose their winning writer
    /// are rewritten from the next-highest landed writer, or cleared
    /// when none remains.
    fn undo_group(&mut self, g: usize) {
        self.mask.set(g, false);
        for t in 0..self.group_touches[g].len() {
            let (cell, entry) = self.group_touches[g][t];
            let st = &mut self.cells[cell];
            let was_winner = st.winner() == Some(entry);
            if let Ok(pos) = st.active.binary_search(&entry) {
                st.active.remove(pos);
            }
            if was_winner {
                match self.cells[cell].winner() {
                    Some(w) => {
                        write_cell(&mut self.img, self.cell_keys[cell], &self.set.entries[w].op)
                    }
                    None => clear_cell(&mut self.img, self.cell_keys[cell]),
                }
                self.dirty.push(self.cell_keys[cell]);
            }
        }
    }

    /// Moves the overlay to `target` cuts, applying/undoing exactly the
    /// groups whose domain prefix changed.
    pub(crate) fn goto(&mut self, target: &[usize]) {
        debug_assert_eq!(target.len(), self.cuts.len());
        self.dirty.clear();
        for (d, &tgt) in target.iter().enumerate() {
            let cur = self.cuts[d];
            if tgt > cur {
                for k in cur..tgt {
                    self.apply_group(self.set.domain_order[d][k]);
                }
            } else {
                for k in (tgt..cur).rev() {
                    self.undo_group(self.set.domain_order[d][k]);
                }
            }
            self.cuts[d] = tgt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::config::{Design, SimConfig};
    use crate::controller::MemoryController;
    use crate::nvmm::LineRead;
    use crate::stats::Stats;
    use proptest::prelude::*;

    fn ctl(design: Design) -> (MemoryController, Stats) {
        let cfg = SimConfig::single_core(design);
        (MemoryController::new(&cfg), Stats::new(1))
    }

    /// Crash instants straddling every journal transition for `c`.
    fn probe_times(horizon_ns: u64) -> impl Iterator<Item = Time> {
        (0..horizon_ns).step_by(7).map(Time::from_ns)
    }

    #[test]
    fn baseline_matches_build_image_at_every_instant() {
        let (mut c, mut s) = ctl(Design::Fca);
        for i in 0..6u64 {
            c.writeback(
                LineAddr(i),
                [i as u8; 64],
                false,
                Time::from_ns(i * 40),
                &mut s,
            );
        }
        for t in probe_times(2_000) {
            let set = c.crash_set(t);
            assert_eq!(
                set.baseline().fingerprint(),
                c.build_image(Some(t)).fingerprint(),
                "all-miss mask must reproduce the single filtered journal at {t}"
            );
        }
    }

    /// The replay adversary gets to pick *any* legal crash image off
    /// the enumeration, not just the ADR baseline. Under a
    /// freshness-anchored policy, every such image whose counter
    /// region lags the completed run must come back `Detected` when
    /// replayed against the final freshness reference.
    #[test]
    fn enumerated_crash_images_replayed_after_the_run_are_caught() {
        use crate::config::IntegrityPolicy;
        use crate::integrity::{FreshnessRef, IntegritySpec};
        use nvmm_crypto::engine::EncryptionEngine;
        use nvmm_crypto::mac::MacEngine;

        let cfg = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Lazy);
        let mut c = MemoryController::new(&cfg);
        let mut s = Stats::new(1);
        for round in 0..2u64 {
            for i in 0..4u64 {
                c.writeback(
                    LineAddr(i),
                    [(1 + round * 4 + i) as u8; 64],
                    true,
                    Time::from_ns(round * 1_000 + i * 50),
                    &mut s,
                );
            }
        }
        let full = c.build_image(None);
        let spec = IntegritySpec {
            policy: IntegrityPolicy::Lazy,
            levels: cfg.tree_levels,
        };
        let fresh = FreshnessRef::capture(&full, spec);
        let counter_region = |img: &NvmmImage| {
            let mut v: Vec<_> = img
                .counter_lines()
                .map(|(a, l)| (a, l.to_bytes()))
                .collect();
            v.sort_unstable_by_key(|&(a, _)| a);
            v
        };
        let full_counters = counter_region(&full);
        let engine = EncryptionEngine::new(cfg.key);
        let mac_engine = MacEngine::new(cfg.key);
        let mut stale_caught = 0u64;
        for t in probe_times(3_000) {
            let set = c.crash_set(t);
            for (mask, img) in set.enumerate_eager(EnumOpts::default()).images {
                let v = set.replay_verdict(&mask, spec, &engine, &mac_engine, &fresh);
                if counter_region(&img) != full_counters {
                    assert!(
                        v.detected(),
                        "stale legal image at {t}, mask {:?}, escaped the root check",
                        mask.landed()
                    );
                    stale_caught += 1;
                }
            }
        }
        assert!(stale_caught > 0, "sweep never produced a stale legal image");
    }

    #[test]
    fn fca_pair_never_tears_under_any_mask() {
        let (mut c, mut s) = ctl(Design::Fca);
        let data = [0x5au8; 64];
        c.writeback(LineAddr(3), data, false, Time::from_ns(10), &mut s);
        for t in probe_times(1_000) {
            let set = c.crash_set(t);
            for (mask, img) in set.enumerate_eager(EnumOpts::default()).images {
                let r = img.read_line(LineAddr(3), c.engine());
                assert!(
                    r.is_clean(),
                    "mask {:?} at {t} exposed a torn pair",
                    mask.landed()
                );
                if !matches!(r, LineRead::Unwritten) {
                    assert_eq!(r.bytes(), data);
                }
            }
        }
    }

    #[test]
    fn in_flight_pair_yields_two_images() {
        let (mut c, mut s) = ctl(Design::Fca);
        c.writeback(LineAddr(1), [1; 64], false, Time::from_ns(10), &mut s);
        // The pair is in flight between submission (t + crypto) and
        // pair-ready; pick an instant inside the window.
        let mid = Time::from_ns(60);
        let set = c.crash_set(mid);
        assert_eq!(set.group_count(), 1, "one CA pair in flight");
        assert_eq!(set.in_flight_len(), 2, "pair = data + counter records");
        assert_eq!(set.legal_images(), 2);
        let e = set.enumerate_eager(EnumOpts::default());
        assert!(e.stats.exhaustive);
        assert_eq!(e.stats.masks_explored, 2);
        assert_eq!(e.stats.domains, 1);
        assert_eq!(e.images.len(), 2, "line absent vs pair landed");
    }

    #[test]
    fn later_pair_never_lands_without_earlier_pair() {
        // Two CA pairs through the serialized coordinator, data lines
        // sharing one counter line: the second pair's counter snapshot
        // already embeds the first pair's bump, so an image with only
        // the second pair landed would garble line 1 — and no hardware
        // can emit it (pair 2's handshake finishes after pair 1's).
        let (mut c, mut s) = ctl(Design::Fca);
        c.writeback(LineAddr(1), [1; 64], false, Time::ZERO, &mut s);
        c.writeback(LineAddr(2), [2; 64], false, Time::from_ns(1), &mut s);
        // Both submitted (~40 ns), neither ready (first pair ~140 ns).
        let t = Time::from_ns(100);
        let set = c.crash_set(t);
        assert_eq!(set.group_count(), 2, "both pairs in flight");
        assert_eq!(set.domain_count(), 1, "one pairing coordinator");
        assert_eq!(set.legal_images(), 3, "prefixes {{}}, {{1}}, {{1,2}}");
        let e = set.enumerate_eager(EnumOpts::default());
        assert!(e.stats.exhaustive);
        assert_eq!(e.stats.masks_explored, 3);
        for (mask, img) in &e.images {
            assert!(set.is_legal(mask));
            assert!(
                mask.get(0) || !mask.get(1),
                "prefix closure violated: {:?}",
                mask.landed()
            );
            let r = img.read_line(LineAddr(1), c.engine());
            assert!(
                matches!(r, LineRead::Unwritten) || r.is_clean(),
                "mask {:?} garbled line 1: the independence bug",
                mask.landed()
            );
        }
    }

    #[test]
    fn quiesced_crash_has_single_image() {
        let (mut c, mut s) = ctl(Design::Sca);
        c.writeback(LineAddr(4), [1; 64], false, Time::ZERO, &mut s);
        c.writeback(LineAddr(4), [2; 64], false, Time::from_ns(400), &mut s);
        let set = c.crash_set(c.quiesce_time());
        assert_eq!(set.group_count(), 0, "no in-flight entries after quiesce");
        let e = set.enumerate_eager(EnumOpts::default());
        assert_eq!(e.images.len(), 1);
        assert_eq!(
            e.images[0].1.fingerprint(),
            c.build_image(None).fingerprint(),
            "the single image is the everything-landed journal"
        );
    }

    #[test]
    fn shadowed_group_is_pruned() {
        let (mut c, mut s) = ctl(Design::Sca);
        // Filler pairs back up the serialized pairing coordinator so the
        // pair under test stays in flight for hundreds of ns.
        for i in 0..4u64 {
            c.writeback(LineAddr(100 + i), [0; 64], true, Time::from_ns(i), &mut s);
        }
        // The shadowed victim: a CA pair to line 4 whose ready time is
        // far out, followed by *guaranteed-fast* plain writes covering
        // both halves — a newer ciphertext for the data line and (via
        // ccwb) a newer counter line.
        c.writeback(LineAddr(4), [1; 64], true, Time::from_ns(10), &mut s);
        c.writeback(LineAddr(4), [2; 64], false, Time::from_ns(20), &mut s);
        c.counter_writeback(LineAddr(4), Time::from_ns(70), &mut s);
        let t = Time::from_ns(250);
        let set = c.crash_set(t);
        assert!(
            set.pruned_groups() >= 1,
            "the covered pair must be pruned (pruned={}, groups={})",
            set.pruned_groups(),
            set.group_count()
        );
        // Whatever the surviving choice groups do, line 4 is pinned by
        // the later guaranteed writes: always the newest plaintext.
        for (mask, img) in set.enumerate_eager(EnumOpts::default()).images {
            assert_eq!(
                img.read_line(LineAddr(4), c.engine()),
                LineRead::Clean([2; 64]),
                "mask {:?} changed a fully shadowed line",
                mask.landed()
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let (mut c, mut s) = ctl(Design::Fca);
        // Back-to-back CA writes chain on the pairing coordinator
        // (~100 ns per handshake), so a mid-burst crash sees far more
        // pairs in flight than the cap admits images.
        for i in 0..100u64 {
            c.writeback(LineAddr(i), [i as u8; 64], false, Time::from_ns(i), &mut s);
        }
        let t = Time::from_ns(600);
        let set = c.crash_set(t);
        assert!(
            set.legal_images() > 64,
            "need a big in-flight window, got {} groups",
            set.group_count()
        );
        let opts = EnumOpts {
            max_images: 64,
            seed: 7,
        };
        let a = set.enumerate_eager(opts);
        let b = set.enumerate_eager(opts);
        assert!(!a.stats.exhaustive);
        assert_eq!(a.stats.masks_explored, 64);
        assert_eq!(a.images.len(), b.images.len());
        for ((ma, ia), (mb, ib)) in a.images.iter().zip(b.images.iter()) {
            assert_eq!(ma, mb);
            assert_eq!(ia.fingerprint(), ib.fingerprint());
        }
        for (mask, _) in &a.images {
            assert!(set.is_legal(mask), "sampled an illegal mask");
        }
        // A different seed explores a different sample.
        let c2 = set.enumerate_eager(EnumOpts {
            max_images: 64,
            seed: 8,
        });
        assert!(
            a.images
                .iter()
                .zip(c2.images.iter())
                .any(|(x, y)| x.0 != y.0),
            "different seeds should sample different masks"
        );
    }

    /// Asserts the eager replay and the fused overlay walk agree exactly
    /// at 1, 2 and 5 worker threads: same masks, same fingerprints, same
    /// stats, in the same order.
    fn assert_enumerations_agree(set: &CrashSet, opts: EnumOpts) {
        let key = SimConfig::single_core(Design::Sca).key;
        let (engine, mac_engine) = (EncryptionEngine::new(key), MacEngine::new(key));
        let eager = set.enumerate_eager(opts);
        for threads in [1, 2, 5] {
            let (fused, _) = set.enumerate_verified(
                opts,
                threads,
                IntegritySpec::disabled(),
                &engine,
                &mac_engine,
            );
            assert_eq!(
                eager.stats,
                fused.stats,
                "{threads}-thread stats diverged at {}",
                set.crash_time()
            );
            assert_eq!(eager.images.len(), fused.images.len());
            for ((me, ie), (mf, f)) in eager.images.iter().zip(fused.images.iter()) {
                assert_eq!(
                    me,
                    mf,
                    "{threads}-thread retained masks diverged at {}",
                    set.crash_time()
                );
                assert_eq!(
                    ie.fingerprint(),
                    f.fingerprint(),
                    "{threads}-thread images diverged for mask {:?} at {}",
                    me.landed(),
                    set.crash_time()
                );
                assert_eq!(f.fingerprint(), f.fingerprint_recompute());
            }
        }
    }

    #[test]
    fn overlay_matches_eager_on_controller_journals() {
        for design in [Design::Fca, Design::Sca, Design::CoLocated] {
            let (mut c, mut s) = ctl(design);
            for i in 0..12u64 {
                c.writeback(
                    LineAddr(i % 5),
                    [i as u8; 64],
                    i % 3 == 0,
                    Time::from_ns(i * 13),
                    &mut s,
                );
                if i % 4 == 1 {
                    c.counter_writeback(LineAddr(i % 5), Time::from_ns(i * 13 + 5), &mut s);
                }
            }
            for t in probe_times(1_500) {
                let set = c.crash_set(t);
                assert_enumerations_agree(&set, EnumOpts::default());
                assert_enumerations_agree(
                    &set,
                    EnumOpts {
                        max_images: 16,
                        seed: 11,
                    },
                );
            }
        }
    }

    /// A synthetic journal driven straight from a seed: random ops over
    /// a small address space, random in-flight windows, random pairing —
    /// shapes no single controller design emits, exercising the overlay's
    /// cross-domain same-cell interleavings.
    fn synthetic_journal(seed: u64) -> Vec<JournalRecord> {
        use crate::integrity::DigestLine;
        use nvmm_crypto::counter::CounterLine;
        use nvmm_crypto::mac::{Mac, MacLine};
        use nvmm_crypto::Counter;
        let mut state = seed.wrapping_mul(2).wrapping_add(1);
        let mut rng = move || splitmix64(&mut state);
        let n = 4 + (rng() % 20) as usize;
        let mut journal = Vec::with_capacity(n);
        let mut pair = 0u64;
        for i in 0..n as u64 {
            let submitted_ns = i * 10 + rng() % 5;
            let submitted = Time::from_ns(submitted_ns);
            let flight = rng() % 400;
            let domain = match rng() % 4 {
                0 => Domain::Pairing,
                1 => Domain::DataQueue,
                2 => Domain::CounterQueue,
                _ => Domain::MetadataQueue,
            };
            // Spread records over two shards (pair members share one)
            // so the differential suite covers sharded journals too.
            let shard = (rng() % 2) as usize;
            let mk_op = |r: u64, v: u64| -> JournalOp {
                match r % 7 {
                    0 => JournalOp::Plain {
                        line: LineAddr(v % 4),
                        data: [v as u8; 64],
                    },
                    1 => JournalOp::Encrypted {
                        line: LineAddr(v % 4),
                        ciphertext: [v as u8 ^ 0x55; 64],
                        counter: Counter(v + 1),
                    },
                    2 => JournalOp::CoLocated {
                        line: LineAddr(v % 4),
                        ciphertext: [v as u8 ^ 0xaa; 64],
                        counter: Counter(v + 1),
                    },
                    3 => {
                        let mut cl = CounterLine::new();
                        cl.set((v % 8) as usize, Counter(v + 1));
                        JournalOp::CounterLine {
                            cline: CounterLineAddr(v % 2),
                            counters: cl,
                        }
                    }
                    4 => {
                        let mut ml = MacLine::new();
                        ml.set((v % 8) as usize, Mac(v + 1));
                        JournalOp::MacLine {
                            mline: MacLineAddr(v % 2),
                            macs: ml,
                        }
                    }
                    5 => {
                        let mut d = DigestLine::new();
                        d.set((v % 8) as usize, v + 1);
                        JournalOp::TreeNode {
                            node: TreeNodeAddr {
                                level: 1 + (v % 2) as u32,
                                index: v % 2,
                            },
                            digests: d,
                        }
                    }
                    _ => {
                        let mut cl = CounterLine::new();
                        cl.set((v % 8) as usize, Counter(v + 1));
                        let mut ml = MacLine::new();
                        ml.set((v % 8) as usize, Mac(v + 2));
                        JournalOp::PackedMeta {
                            cline: CounterLineAddr(v % 2),
                            counters: cl,
                            macs: ml,
                        }
                    }
                }
            };
            // Occasionally emit a CA-style pair: two records sharing a
            // pair id, landing atomically.
            if domain == Domain::Pairing && rng() % 2 == 0 {
                pair += 1;
                let guaranteed = Time::from_ns(submitted_ns + 50 + flight);
                for _ in 0..2 {
                    journal.push(JournalRecord {
                        submitted_at: submitted,
                        guaranteed_at: guaranteed,
                        pair: Some(pair),
                        domain,
                        shard,
                        op: mk_op(rng(), rng()),
                    });
                }
            } else {
                journal.push(JournalRecord {
                    submitted_at: submitted,
                    guaranteed_at: Time::from_ns(submitted_ns + 20 + flight),
                    pair: None,
                    domain,
                    shard,
                    op: mk_op(rng(), rng()),
                });
            }
        }
        journal
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]
        #[test]
        fn overlay_matches_eager_on_random_journals(seed in 0u64..1_000_000) {
            let journal = synthetic_journal(seed);
            let horizon_ps = journal
                .iter()
                .map(|r| r.guaranteed_at.0)
                .max()
                .unwrap_or(0)
                + 10_000;
            let mut state = seed;
            for _ in 0..6 {
                let t = Time(splitmix64(&mut state) % horizon_ps);
                let set = CrashSet::from_journal(&journal, t);
                assert_enumerations_agree(&set, EnumOpts::default());
                assert_enumerations_agree(&set, EnumOpts { max_images: 8, seed });
            }
        }

        /// The tentpole differential: the fused delta-verified walk must
        /// reproduce the retained full-pass verifiers *exactly* — same
        /// retained images, same Ok/Err verdict strings, same attack
        /// verdicts including blame — across every policy, exhaustive
        /// and sampled schedules, and thread counts.
        #[test]
        fn delta_verdicts_match_full_verifiers_on_random_journals(seed in 0u64..1_000_000) {
            use crate::config::IntegrityPolicy;
            use crate::integrity::{verify_image_attack_with, verify_image_with};
            let cfg = SimConfig::single_core(Design::Sca);
            let engine = EncryptionEngine::new(cfg.key);
            let mac_engine = MacEngine::new(cfg.key);
            let journal = synthetic_journal(seed);
            let mut full = NvmmImage::new();
            for r in &journal {
                r.op.apply(&mut full);
            }
            let horizon_ps = journal
                .iter()
                .map(|r| r.guaranteed_at.0)
                .max()
                .unwrap_or(0)
                + 10_000;
            let mut state = seed ^ 0xd1f7;
            for _ in 0..3 {
                let t = Time(splitmix64(&mut state) % horizon_ps);
                let set = CrashSet::from_journal(&journal, t);
                for opts in [EnumOpts::default(), EnumOpts { max_images: 8, seed }] {
                    for policy in IntegrityPolicy::ALL {
                        let spec = IntegritySpec { policy, levels: 2 };
                        let fresh = FreshnessRef::capture(&full, spec);
                        for threads in [1usize, 4] {
                            let (en, verdicts) =
                                set.enumerate_verified(opts, threads, spec, &engine, &mac_engine);
                            let eager = set.enumerate_eager(opts);
                            prop_assert_eq!(en.images.len(), eager.images.len());
                            prop_assert_eq!(en.images.len(), verdicts.len());
                            for (i, (_, img)) in en.images.iter().enumerate() {
                                prop_assert_eq!(
                                    img.fingerprint(),
                                    eager.images[i].1.fingerprint()
                                );
                                prop_assert_eq!(
                                    &verdicts[i],
                                    &verify_image_with(img, spec, &engine, &mac_engine)
                                );
                            }
                            let (en2, sweeps) = set.replay_sweep(
                                opts, threads, spec, &engine, &mac_engine, &fresh,
                            );
                            prop_assert_eq!(en2.images.len(), sweeps.len());
                            for (i, (mask, img)) in en2.images.iter().enumerate() {
                                prop_assert_eq!(
                                    &sweeps[i],
                                    &set.replay_verdict(mask, spec, &engine, &mac_engine, &fresh)
                                );
                                prop_assert_eq!(
                                    &sweeps[i],
                                    &verify_image_attack_with(
                                        img, spec, &engine, &mac_engine, &fresh,
                                    )
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// An injected tree bug — a guaranteed tree node referencing a
    /// counter line that never persisted — must blame the exact same
    /// witness string through the incremental path as through the full
    /// verifier.
    #[test]
    fn injected_tree_bug_blames_same_witness_incrementally() {
        use crate::config::IntegrityPolicy;
        use crate::integrity::{verify_image_with, DigestLine};

        let cfg = SimConfig::single_core(Design::Sca);
        let engine = EncryptionEngine::new(cfg.key);
        let mac_engine = MacEngine::new(cfg.key);
        let mut d = DigestLine::new();
        d.set(3, 0xdead_beef);
        let journal = vec![
            JournalRecord {
                submitted_at: Time::from_ns(0),
                guaranteed_at: Time::from_ns(10),
                pair: None,
                domain: Domain::MetadataQueue,
                shard: 0,
                op: JournalOp::TreeNode {
                    node: TreeNodeAddr { level: 1, index: 0 },
                    digests: d,
                },
            },
            // An in-flight write so the schedule has a real delta to
            // walk past the base image.
            JournalRecord {
                submitted_at: Time::from_ns(5),
                guaranteed_at: Time::from_ns(500),
                pair: None,
                domain: Domain::DataQueue,
                shard: 0,
                op: JournalOp::Plain {
                    line: LineAddr(9),
                    data: [7u8; 64],
                },
            },
        ];
        let set = CrashSet::from_journal(&journal, Time::from_ns(100));
        let spec = IntegritySpec {
            policy: IntegrityPolicy::Strict,
            levels: 2,
        };
        let (en, verdicts) =
            set.enumerate_verified(EnumOpts::default(), 1, spec, &engine, &mac_engine);
        let mut bug_seen = false;
        for (i, (_, img)) in en.images.iter().enumerate() {
            let eager = verify_image_with(img, spec, &engine, &mac_engine);
            assert_eq!(verdicts[i], eager, "incremental/full witness divergence");
            if let Err(e) = &verdicts[i] {
                assert!(
                    e.contains("references counter line"),
                    "unexpected witness: {e}"
                );
                bug_seen = true;
            }
        }
        assert!(bug_seen, "the injected dangling tree link never surfaced");
    }

    #[test]
    fn enumerate_reports_dedupe_accounting() {
        let (mut c, mut s) = ctl(Design::Sca);
        for i in 0..6u64 {
            c.writeback(
                LineAddr(1),
                [i as u8; 64],
                false,
                Time::from_ns(i * 3),
                &mut s,
            );
        }
        for t in probe_times(800) {
            let e = c.crash_set(t).enumerate_eager(EnumOpts::default());
            assert_eq!(
                e.stats.images_deduped,
                e.stats.masks_explored - e.images.len() as u64
            );
            assert_eq!(e.stats.images_unique, e.images.len());
        }
    }

    #[test]
    fn cross_shard_pairs_with_equal_ids_stay_distinct_groups() {
        // Each shard's controller allocates pair ids from zero, so a
        // merged journal reuses the same id for unrelated pairs on
        // different shards. Grouping by (shard, pair) keeps them
        // distinct; a pair-id-only key would fuse them into one choice
        // group and under-enumerate the legal images.
        use nvmm_crypto::Counter;
        let mk = |shard: usize, line: u64| JournalRecord {
            submitted_at: Time::from_ns(1),
            guaranteed_at: Time::from_ns(500),
            pair: Some(1),
            domain: Domain::Pairing,
            shard,
            op: JournalOp::Encrypted {
                line: LineAddr(line),
                ciphertext: [line as u8; 64],
                counter: Counter(1),
            },
        };
        let journal = vec![mk(0, 0), mk(0, 1), mk(1, 8), mk(1, 9)];
        let set = CrashSet::from_journal(&journal, Time::from_ns(10));
        assert_eq!(
            set.group_count(),
            2,
            "pair id 1 on two shards names two unrelated pairs"
        );
        assert_eq!(
            set.legal_images(),
            4,
            "the shards' pairing coordinators race independently"
        );
        let e = set.enumerate_eager(EnumOpts::default());
        assert!(e.stats.exhaustive);
        assert_eq!(e.images.len(), 4);
        // Shard 1's pair landing without shard 0's is a legal image —
        // unreachable if the ids had merged into one group.
        assert!(
            e.images.iter().any(|(_, img)| {
                img.raw_data(LineAddr(8)).is_some() && img.raw_data(LineAddr(0)).is_none()
            }),
            "missing the shard-1-only landing"
        );
    }

    #[test]
    fn landmask_bit_ops() {
        let mut m = LandMask::zeros(70);
        assert!(!m.is_empty());
        assert_eq!(m.len(), 70);
        m.set(0, true);
        m.set(69, true);
        assert!(m.get(0) && m.get(69) && !m.get(35));
        assert_eq!(m.landed(), vec![0, 69]);
        assert_eq!(m.count_landed(), 2);
        m.set(69, false);
        assert_eq!(m.count_landed(), 1);
        assert_eq!(LandMask::ones(70).count_landed(), 70);
    }
}
