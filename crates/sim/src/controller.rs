//! The memory controller: encryption engine, counter cache, write-queue
//! complex, and the persistence journal from which post-crash NVMM images
//! are built.
//!
//! One controller is shared by all cores (it sits in front of the single
//! NVMM channel). The controller implements the read and write datapaths
//! of all evaluated designs:
//!
//! * **NoEncryption** — plain reads/writes.
//! * **Co-located** (±counter cache) — 72-byte lines on a 72-bit bus;
//!   atomic by construction; reads serialize decryption unless the
//!   counter cache hits (§3.2.1).
//! * **Separate-counter** designs (Ideal / FCA / SCA / Unsafe) — counters
//!   live in their own region, cached in the counter cache; writes go
//!   through the paired write queues of [`crate::wq`] according to the
//!   design's counter-atomicity policy.
//!
//! Every NVMM write, in every design and integrity policy, is handed to
//! its queue and then booked once by one `charge` (wear, region counter,
//! bytes) and journaled by one `append`.
//!
//! ## The journal
//!
//! Every NVMM write is appended to a journal stamped with the time at
//! which it was *submitted* to the write-queue complex and the time at
//! which ADR *guarantees* it (acceptance for plain writes, pair-ready for
//! counter-atomic writes). A post-crash image is the journal filtered by
//! `guaranteed_at <= crash_time`, applied in submission order — exactly
//! the set of entries the paper's ADR drain would persist (§5.2.2 "Steps
//! During a System Failure").
//!
//! The window between submission and guarantee is where ADR makes *no*
//! promise either way: a crash inside it may or may not have latched the
//! entry. [`MemoryController::crash_set`] surfaces that in-flight set
//! (with counter-atomic pairs grouped so they toggle together) for the
//! [`crate::crashmc`] model checker, which enumerates every image the
//! hardware could legally leave behind instead of the single
//! everything-lost image [`MemoryController::build_image`] picks.

use crate::addr::{CounterLineAddr, LineAddr, MacLineAddr, NvmmTarget, TreeNodeAddr};
use crate::cache::SetAssocCache;
use crate::config::{Design, InjectedBug, SimConfig};
use crate::crashmc::Domain;
use crate::device::{AccessKind, PcmDevice, WearReport, WearTracker};
use crate::integrity::{DigestLine, IntegrityState, MetaKey};
use crate::nvmm::NvmmImage;
use crate::stats::Stats;
use crate::time::Time;
use crate::wq::{PlainReceipt, WriteQueues};
use fxhash::{FxHashMap, FxHashSet};
use nvmm_crypto::counter::CounterLine;
use nvmm_crypto::engine::EncryptionEngine;
use nvmm_crypto::mac::MacLine;
use nvmm_crypto::LineData;

/// One persisted NVMM write, with the instant it entered the write-queue
/// complex and the instant ADR vouches for it.
#[derive(Debug, Clone)]
pub(crate) struct JournalRecord {
    /// When the write was handed to the queues. Between `submitted_at`
    /// and `guaranteed_at` the entry is *in flight*: ADR neither
    /// promises nor forbids its persistence across a crash.
    pub(crate) submitted_at: Time,
    pub(crate) guaranteed_at: Time,
    /// Counter-atomic pair id: the data and counter records of one CA
    /// write share an id and land (or are lost) atomically — the
    /// ready-bit rule of §5.2.2. `None` for unpaired (plain) writes.
    pub(crate) pair: Option<u64>,
    /// The serialization domain whose mechanism produced
    /// `guaranteed_at`; in-flight landings are prefix-closed within a
    /// domain (see [`crate::crashmc`]).
    pub(crate) domain: crate::crashmc::Domain,
    /// The channel shard whose controller owns the write. Each shard
    /// has its own queues and pairing coordinator, so the model
    /// checker's serialization domains are (shard, domain) pairs; a
    /// single-controller system journals everything as shard 0.
    pub(crate) shard: usize,
    pub(crate) op: JournalOp,
}

#[derive(Debug, Clone)]
pub(crate) enum JournalOp {
    Plain {
        line: LineAddr,
        data: LineData,
    },
    Encrypted {
        line: LineAddr,
        ciphertext: LineData,
        counter: nvmm_crypto::Counter,
    },
    CoLocated {
        line: LineAddr,
        ciphertext: LineData,
        counter: nvmm_crypto::Counter,
    },
    CounterLine {
        cline: CounterLineAddr,
        counters: CounterLine,
    },
    MacLine {
        mline: MacLineAddr,
        macs: MacLine,
    },
    TreeNode {
        node: TreeNodeAddr,
        digests: DigestLine,
    },
    /// SecPM-style packed metadata write: the counter line and its MAC
    /// line land as one line-sized write (the colocated policy's
    /// halving of metadata traffic). The two halves are inherently
    /// atomic — one device write — so one journal record carries both.
    PackedMeta {
        cline: CounterLineAddr,
        counters: CounterLine,
        macs: MacLine,
    },
}

impl JournalOp {
    /// Applies this persisted write to an image under construction.
    pub(crate) fn apply(&self, img: &mut NvmmImage) {
        match self {
            JournalOp::Plain { line, data } => img.write_plain(*line, *data),
            JournalOp::Encrypted {
                line,
                ciphertext,
                counter,
            } => img.write_encrypted(*line, *ciphertext, *counter),
            JournalOp::CoLocated {
                line,
                ciphertext,
                counter,
            } => img.write_co_located(*line, *ciphertext, *counter),
            JournalOp::CounterLine { cline, counters } => img.write_counter_line(*cline, *counters),
            JournalOp::MacLine { mline, macs } => img.write_mac_line(*mline, *macs),
            JournalOp::TreeNode { node, digests } => img.write_tree_node(*node, *digests),
            JournalOp::PackedMeta {
                cline,
                counters,
                macs,
            } => {
                img.write_counter_line(*cline, *counters);
                img.write_mac_line(MacLineAddr(cline.0), *macs);
            }
        }
    }

    /// The NVMM target this write lands on.
    pub(crate) fn target(&self) -> NvmmTarget {
        match self {
            JournalOp::Plain { line, .. }
            | JournalOp::Encrypted { line, .. }
            | JournalOp::CoLocated { line, .. } => NvmmTarget::Data(*line),
            JournalOp::CounterLine { cline, .. } => NvmmTarget::Counter(*cline),
            JournalOp::MacLine { mline, .. } => NvmmTarget::Mac(*mline),
            JournalOp::TreeNode { node, .. } => NvmmTarget::TreeNode(*node),
            JournalOp::PackedMeta { cline, .. } => NvmmTarget::PackedMeta(*cline),
        }
    }

    /// Whether a later persisted `self` fully overwrites everything
    /// `earlier` would have written — used by the model checker's
    /// shadowing prune. Same-target full-line writes of the same shape
    /// qualify; a co-located write additionally updates the in-line
    /// counter, so only another co-located write covers it.
    pub(crate) fn covers(&self, earlier: &JournalOp) -> bool {
        if self.target() != earlier.target() {
            return false;
        }
        match (self, earlier) {
            (JournalOp::CounterLine { .. }, JournalOp::CounterLine { .. }) => true,
            (JournalOp::CoLocated { .. }, _) => true,
            (_, JournalOp::CoLocated { .. }) => false,
            _ => true,
        }
    }
}

/// A journal op keyed by its NVMM target: a set of these holds one op
/// per target, one pointer each.
struct ByTarget<'a>(&'a JournalOp);

impl std::hash::Hash for ByTarget<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.target().hash(state);
    }
}

impl PartialEq for ByTarget<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.target() == other.0.target()
    }
}

impl Eq for ByTarget<'_> {}

/// Applies a journal sequence to `img` with the result of applying every
/// op in order, paying only for the ops that can still matter.
///
/// A first walk finds the last writer of each NVMM target. The second
/// walk applies an op only when it is that last writer or the last
/// writer does not [`JournalOp::covers`] it, in the original order. A
/// skipped op's every cell is rewritten later by its target's last
/// writer, which is applied, so the final maps — and therefore the
/// incremental fingerprint, a commutative fold over them — are
/// bit-identical to per-record apply, which stays the oracle in
/// `CrashSet::image`. Each surviving write costs its two fingerprint
/// hashes once; a skipped one costs none. Side state is one pointer
/// per distinct target.
///
/// `ops` is called twice and must yield the same sequence both times.
pub(crate) fn apply_journal<'a, I>(img: &mut NvmmImage, ops: impl Fn() -> I)
where
    I: Iterator<Item = &'a JournalOp>,
{
    let mut last: FxHashSet<ByTarget<'a>> = FxHashSet::default();
    for op in ops() {
        last.replace(ByTarget(op));
    }
    for op in ops() {
        let writer = last.get(&ByTarget(op)).map_or(op, |w| w.0);
        if std::ptr::eq(writer, op) || !writer.covers(op) {
            op.apply(img);
        }
    }
}

/// The shared memory controller.
#[derive(Debug)]
pub struct MemoryController {
    design: Design,
    device: PcmDevice,
    queues: WriteQueues,
    engine: EncryptionEngine,
    /// Presence/dirtiness of counter lines on chip; values live in
    /// `counter_state`.
    counter_cache: Option<SetAssocCache<CounterLineAddr, ()>>,
    /// Architecturally latest counter values (the counter cache plus
    /// everything below it). Never forgets.
    counter_state: FxHashMap<CounterLineAddr, CounterLine>,
    /// Plaintext view of the newest write-back of every line; the fill
    /// source for LLC read misses.
    below_llc: FxHashMap<LineAddr, LineData>,
    journal: Vec<JournalRecord>,
    /// Next counter-atomic pair id for journal grouping.
    next_pair: u64,
    crypto_latency: Time,
    overhead: Time,
    compress_counters: bool,
    /// Per-target NVMM write accounting (wear tracking, §6.3.3).
    wear: WearTracker,
    /// Stop-loss window: force a counter-line write-back after this many
    /// un-persisted bumps (None = disabled).
    stop_loss: Option<u64>,
    /// Un-persisted counter bumps per counter line.
    counter_lag: FxHashMap<CounterLineAddr, u64>,
    /// The integrity-verification subsystem, when the config enables it.
    integrity: Option<IntegrityState>,
    /// Fault injection: the injected bug journals its metadata (the
    /// strict tree path, the pipelined root, or the phoenix epoch
    /// summary) as independent instantly-guaranteed writes instead of
    /// riding the counter-atomic pair — the ordering bug the model
    /// checker must catch.
    injected_bug: Option<InjectedBug>,
    /// Channel-shard id stamped on every journal record (0 for the
    /// single-controller pipeline).
    shard_id: usize,
}

impl MemoryController {
    /// Builds the controller described by `config`.
    pub fn new(config: &SimConfig) -> Self {
        Self::new_shard(config, 0)
    }

    /// Builds one shard of a channel-sharded controller complex:
    /// identical to [`MemoryController::new`] except that journal
    /// records carry `shard_id`.
    pub(crate) fn new_shard(config: &SimConfig, shard_id: usize) -> Self {
        let counter_cache = config
            .design
            .has_counter_cache()
            .then(|| SetAssocCache::new(config.counter_cache.sets(), config.counter_cache.ways));
        Self {
            design: config.design,
            device: PcmDevice::new(config),
            queues: WriteQueues::new(
                config.data_write_queue_entries,
                config.counter_write_queue_entries,
                config.metadata_write_queue_entries,
                config.ca_pair_overhead,
            ),
            engine: EncryptionEngine::new(config.key),
            counter_cache,
            counter_state: FxHashMap::default(),
            below_llc: FxHashMap::default(),
            journal: Vec::new(),
            next_pair: 0,
            crypto_latency: config.crypto_latency,
            overhead: config.controller_overhead,
            compress_counters: config.compress_counters,
            wear: WearTracker::new(),
            stop_loss: config.stop_loss,
            counter_lag: FxHashMap::default(),
            integrity: IntegrityState::from_config(config),
            injected_bug: config.injected_bug,
            shard_id,
        }
    }

    /// The design this controller implements.
    pub fn design(&self) -> Design {
        self.design
    }

    fn current_counter_line(&self, cline: CounterLineAddr) -> CounterLine {
        self.counter_state.get(&cline).copied().unwrap_or_default()
    }

    /// Bytes charged for writing `cline` to NVMM: 64, or the
    /// base-delta-compressed size when compression is enabled.
    fn counter_line_cost(&self, cline: CounterLineAddr) -> u64 {
        if self.compress_counters {
            nvmm_crypto::compress::compressed_bytes(&self.current_counter_line(cline))
        } else {
            64
        }
    }

    /// Instantaneous (data, counter) write-queue occupancy at `t` — the
    /// quantity the telemetry sampler records at each epoch boundary.
    pub fn write_queue_depths(&self, t: Time) -> (usize, usize) {
        (
            self.queues.data_occupancy(t),
            self.queues.counter_occupancy(t),
        )
    }

    /// The instant the write-queue complex is fully drained and the
    /// pairing coordinator idle (see [`WriteQueues::quiesce_time`]): a
    /// crash at or after it has an empty in-flight set.
    pub fn quiesce_time(&self) -> Time {
        self.queues.quiesce_time()
    }

    /// Wear summary over all NVMM writes: (distinct targets written,
    /// maximum writes to any single target).
    pub fn wear_summary(&self) -> (u64, u64) {
        (self.wear.distinct(), self.wear.max())
    }

    /// Full wear/endurance report at the given cell endurance.
    pub fn wear_report(&self, cell_endurance: u64) -> WearReport {
        self.wear.report(cell_endurance)
    }

    /// Probes the counter cache for `cline`. On a hit returns `None`; on
    /// a miss fills the line (possibly writing back a dirty victim) and
    /// returns the time at which the counter arrives from NVMM.
    fn probe_counter_cache(
        &mut self,
        cline: CounterLineAddr,
        t: Time,
        stats: &mut Stats,
    ) -> Option<Time> {
        let Some(cache) = self.counter_cache.as_mut() else {
            return Some(t); // no counter cache: counters are never on chip
        };
        if cache.get(&cline).is_some() {
            stats.counter_cache_hits += 1;
            return None;
        }
        stats.counter_cache_misses += 1;
        // Fill from NVMM: one counter-region read (§5.2.1). Co-located
        // designs take the counter from the widened data line instead.
        let fill_done = if self.design.co_located() {
            t
        } else {
            stats.nvmm_counter_reads += 1;
            self.device
                .schedule(NvmmTarget::Counter(cline), AccessKind::Read, t)
                .done
        };
        if let Some(victim) =
            self.counter_cache
                .as_mut()
                .expect("probed above")
                .insert(cline, (), false)
        {
            if victim.dirty {
                stats.counter_cache_evictions += 1;
                self.persist_counter_line(victim.key, t, stats);
            }
        }
        Some(fill_done)
    }

    /// Charges one NVMM write request for `target`: one wear record and
    /// the region's fresh-or-coalesced counter, plus its byte cost when
    /// fresh. The only code that knows what each region's write costs.
    fn charge(&mut self, target: NvmmTarget, coalesced: bool, stats: &mut Stats) {
        stats.wear_line_writes += 1;
        self.wear.record(target);
        match (target, coalesced) {
            (NvmmTarget::Data(_), true) => stats.coalesced_data_writes += 1,
            (NvmmTarget::Counter(_), true) => stats.coalesced_counter_writes += 1,
            (NvmmTarget::PackedMeta(_), true) => stats.coalesced_packed_meta_writes += 1,
            (NvmmTarget::Mac(_) | NvmmTarget::TreeNode(_), true) => {
                stats.coalesced_metadata_writes += 1
            }
            (NvmmTarget::Data(_), false) => {
                stats.nvmm_data_writes += 1;
                // Co-located designs widen the line to carry its counter.
                stats.bytes_written += if self.design.co_located() { 72 } else { 64 };
            }
            (NvmmTarget::Counter(cline), false) => {
                stats.nvmm_counter_writes += 1;
                stats.bytes_written += self.counter_line_cost(cline);
            }
            (NvmmTarget::PackedMeta(cline), false) => {
                stats.nvmm_packed_meta_writes += 1;
                stats.bytes_written += self.counter_line_cost(cline) + 64;
            }
            (NvmmTarget::Mac(_) | NvmmTarget::TreeNode(_), false) => {
                stats.nvmm_metadata_writes += 1;
                stats.bytes_written += 64;
            }
        }
    }

    /// Submits an unpaired write of `target` to its queue at `t` and
    /// charges it.
    fn submit(&mut self, target: NvmmTarget, t: Time, stats: &mut Stats) -> PlainReceipt {
        let receipt = self.queues.submit_plain(&mut self.device, target, t);
        self.charge(target, receipt.coalesced, stats);
        receipt
    }

    /// Appends one persisted write to the journal, stamped with this
    /// controller's shard.
    fn append(
        &mut self,
        op: JournalOp,
        domain: Domain,
        pair: Option<u64>,
        submitted_at: Time,
        guaranteed_at: Time,
    ) {
        self.journal.push(JournalRecord {
            submitted_at,
            guaranteed_at,
            pair,
            domain,
            shard: self.shard_id,
            op,
        });
    }

    /// A fresh counter-atomic pair id for journal grouping.
    fn next_pair(&mut self) -> Option<u64> {
        self.next_pair += 1;
        Some(self.next_pair - 1)
    }

    /// Whether counter and MAC lines persist as one packed line (the
    /// colocated policy).
    fn packed_meta(&self) -> bool {
        self.integrity
            .as_ref()
            .is_some_and(|i| i.policy().packed_meta())
    }

    /// The journal op persisting `cline`'s current counters: the packed
    /// (counter, MAC) line under the colocated policy — one record
    /// covering both cells — and the bare counter line otherwise.
    fn counter_op(&self, cline: CounterLineAddr) -> JournalOp {
        let counters = self.current_counter_line(cline);
        match self.integrity.as_ref().filter(|i| i.policy().packed_meta()) {
            Some(integ) => JournalOp::PackedMeta {
                cline,
                counters,
                macs: integ.mac_snapshot(MacLineAddr(cline.0)),
            },
            None => JournalOp::CounterLine { cline, counters },
        }
    }

    /// Touches `key` in the metadata cache (dirty or clean), counting the
    /// hit or miss; a dirty victim it displaces joins `evicted`.
    fn touch_meta(
        &mut self,
        key: MetaKey,
        dirty: bool,
        evicted: &mut Vec<MetaKey>,
        stats: &mut Stats,
    ) {
        let integ = self.integrity.as_mut().expect("integrity enabled");
        let (victim, hit) = integ.touch(key, dirty);
        if hit {
            stats.tree_cache_hits += 1;
        } else {
            stats.tree_cache_misses += 1;
        }
        evicted.extend(victim);
    }

    /// Updates the integrity metadata for a write of `data` to `line`
    /// under `counter`: records the line's MAC, recomputes its counter
    /// line's tree path, and touches every metadata line it changed.
    /// A counter-atomic write passes its pair's metadata ops as `pair`:
    /// its MAC line persists with the pair, so it stays clean in cache
    /// and, unless the colocated packed line already carries it, its
    /// journal op joins `pair`. A plain write's MAC stays dirty on chip
    /// beside the dirty counter. Tree nodes stay clean when the path
    /// rides the pair (strict, pipelined) or is never persisted
    /// (phoenix), and dirty for eviction-time persistence otherwise
    /// (lazy). Dirty victims join `evicted`. Returns the MAC line and
    /// the updated path, or `None` when integrity is off.
    fn update_metadata(
        &mut self,
        line: LineAddr,
        counter: nvmm_crypto::Counter,
        data: &LineData,
        pair: Option<&mut Vec<JournalOp>>,
        evicted: &mut Vec<MetaKey>,
        stats: &mut Stats,
    ) -> Option<(MacLineAddr, Vec<(TreeNodeAddr, DigestLine)>)> {
        let integ = self.integrity.as_mut()?;
        let policy = integ.policy();
        let mline = integ.record_mac(line, counter, data);
        let paired = pair.is_some();
        if let Some(ops) = pair.filter(|_| !policy.packed_meta()) {
            let macs = integ.mac_snapshot(mline);
            ops.push(JournalOp::MacLine { mline, macs });
        }
        self.touch_meta(MetaKey::Mac(mline), !paired, evicted, stats);
        let mut path = Vec::new();
        if policy.has_tree() {
            let cline = line.counter_line();
            let counters = self.current_counter_line(cline).to_bytes();
            let node_dirty = !policy.persists_path_in_pair() && !policy.phoenix();
            path = self
                .integrity
                .as_mut()
                .expect("checked above")
                .update_tree_path(cline, &counters);
            for &(node, _) in &path {
                self.touch_meta(MetaKey::Node(node), node_dirty, evicted, stats);
            }
        }
        Some((mline, path))
    }

    /// Persists `cline` together with its MAC line as one atomic unit
    /// (shared pair id, common guarantee instant). The MAC binds the
    /// counter, so recovery must see both halves from the same snapshot
    /// — persisting them apart would manufacture MAC violations out of
    /// a perfectly legal crash. Cleans both cached copies.
    fn flush_counter_mac_pair(
        &mut self,
        cline: CounterLineAddr,
        t: Time,
        stats: &mut Stats,
    ) -> Time {
        let mline = MacLineAddr(cline.0);
        let packed = self.packed_meta();
        let (guaranteed, pair) = if packed {
            // Colocated: the two halves are one packed line — a single
            // write, atomic by construction, no pair id needed.
            let r = self.submit(NvmmTarget::PackedMeta(cline), t, stats);
            (r.accepted, None)
        } else {
            let rc = self.submit(NvmmTarget::Counter(cline), t, stats);
            let rm = self.submit(NvmmTarget::Mac(mline), t, stats);
            (rc.accepted.max(rm.accepted), self.next_pair())
        };
        let integ = self.integrity.as_mut().expect("integrity enabled");
        integ.clean(MetaKey::Mac(mline));
        let macs = integ.mac_snapshot(mline);
        let domain = Domain::CounterQueue;
        self.append(self.counter_op(cline), domain, pair, t, guaranteed);
        if !packed {
            let op = JournalOp::MacLine { mline, macs };
            self.append(op, domain, pair, t, guaranteed);
        }
        if let Some(cache) = self.counter_cache.as_mut() {
            cache.clean(&cline);
        }
        guaranteed
    }

    /// Persists `cline` by whatever mechanism the configuration
    /// requires: alone when integrity is off or its MAC line is clean,
    /// atomically with the MAC line otherwise. Returns the guarantee
    /// time; the caller still owns the counter cache's dirty bit when
    /// the plain path is taken.
    fn persist_counter_line(&mut self, cline: CounterLineAddr, t: Time, stats: &mut Stats) -> Time {
        let mac_dirty = self
            .integrity
            .as_ref()
            .is_some_and(|i| i.is_dirty(MetaKey::Mac(MacLineAddr(cline.0))));
        if mac_dirty {
            return self.flush_counter_mac_pair(cline, t, stats);
        }
        // Always ready on acceptance.
        let r = self.submit(NvmmTarget::Counter(cline), t, stats);
        let counters = self.current_counter_line(cline);
        let op = JournalOp::CounterLine { cline, counters };
        self.append(op, Domain::CounterQueue, None, t, r.accepted);
        r.accepted
    }

    /// Persists a dirty metadata-cache victim: a MAC line drags its
    /// counter line along (they persist as a unit); a tree node goes out
    /// alone through the metadata queue.
    fn persist_meta_eviction(&mut self, key: MetaKey, t: Time, stats: &mut Stats) {
        stats.tree_cache_evictions += 1;
        match key {
            MetaKey::Mac(mline) => {
                self.flush_counter_mac_pair(CounterLineAddr(mline.0), t, stats);
            }
            MetaKey::Node(node) => {
                let r = self.submit(NvmmTarget::TreeNode(node), t, stats);
                let integ = self.integrity.as_ref().expect("integrity enabled");
                let op = JournalOp::TreeNode {
                    node,
                    digests: integ.tree_snapshot(node),
                };
                self.append(op, Domain::MetadataQueue, None, t, r.accepted);
            }
        }
    }

    /// Services an LLC demand read miss issued at `t`. Returns the
    /// completion time and the line's plaintext payload.
    pub fn read(&mut self, line: LineAddr, t: Time, stats: &mut Stats) -> (Time, LineData) {
        stats.nvmm_reads += 1;
        let payload = self.below_llc.get(&line).copied().unwrap_or([0; 64]);
        let issue = t + self.overhead;
        let data = self
            .device
            .schedule(NvmmTarget::Data(line), AccessKind::Read, issue);

        let done = match self.design {
            Design::NoEncryption => data.done,
            Design::CoLocated => {
                // Serialized: decrypt only after the 72-byte line (and
                // its embedded counter) arrive (Fig. 6a).
                data.done + self.crypto_latency
            }
            Design::CoLocatedCounterCache => {
                match self.probe_counter_cache(line.counter_line(), issue, stats) {
                    // Overlap pad generation with the fetch (Fig. 6b).
                    None => data.done.max(issue + self.crypto_latency),
                    // Miss: the counter arrives with the 72-byte line, so
                    // the pad can only be generated after the fetch.
                    Some(_) => data.done + self.crypto_latency,
                }
            }
            Design::Ideal | Design::Fca | Design::Sca | Design::UnsafeNoAtomicity => {
                let cline = line.counter_line();
                match self.probe_counter_cache(cline, issue, stats) {
                    None => data.done.max(issue + self.crypto_latency),
                    // Miss: the read stalls until the counter line is
                    // fetched from NVMM, then pays the pad latency
                    // (§5.2.1 "if a read access misses the counter cache,
                    // it has to stall").
                    Some(fill_done) => data.done.max(fill_done + self.crypto_latency),
                }
            }
        };
        (done, payload)
    }

    /// Accepts a write-back (eviction or `clwb`) of `line` carrying
    /// `data`, annotated counter-atomic or not. Returns the time at which
    /// the write's durability is guaranteed by ADR.
    pub fn writeback(
        &mut self,
        line: LineAddr,
        data: LineData,
        counter_atomic: bool,
        t: Time,
        stats: &mut Stats,
    ) -> Time {
        self.below_llc.insert(line, data);
        if counter_atomic {
            stats.counter_atomic_writes += 1;
        } else {
            stats.plain_writes += 1;
        }
        let (t_sub, op) = match self.design {
            Design::NoEncryption => (t, JournalOp::Plain { line, data }),
            Design::CoLocated | Design::CoLocatedCounterCache => {
                let enc = self.engine.encrypt(line.0, &data);
                if self.design == Design::CoLocatedCounterCache {
                    // Keep the counter cache warm for future reads; the
                    // counter itself travels with the line.
                    if let Some(cache) = self.counter_cache.as_mut() {
                        cache.insert(line.counter_line(), (), false);
                    }
                }
                let op = JournalOp::CoLocated {
                    line,
                    ciphertext: enc.ciphertext,
                    counter: enc.counter,
                };
                (t + self.crypto_latency, op)
            }
            Design::Ideal | Design::Fca | Design::Sca | Design::UnsafeNoAtomicity => {
                return self.writeback_separate(line, data, counter_atomic, t, stats);
            }
        };
        let r = self.submit(NvmmTarget::Data(line), t_sub, stats);
        self.append(op, Domain::DataQueue, None, t_sub, r.accepted);
        r.accepted
    }

    fn writeback_separate(
        &mut self,
        line: LineAddr,
        data: LineData,
        counter_atomic: bool,
        t: Time,
        stats: &mut Stats,
    ) -> Time {
        let cline = line.counter_line();
        let slot = line.counter_slot().slot;

        // Encryption engine: the line's counter is bumped by one (the
        // standard per-line minor-counter scheme — consecutive values
        // keep counter lines compressible and, with stop-loss, make the
        // post-crash candidate window bounded).
        let counter = self.current_counter_line(cline).get(slot).bump();
        let data_op = JournalOp::Encrypted {
            line,
            ciphertext: self.engine.encrypt_with(line.0, &data, counter),
            counter,
        };
        self.counter_state
            .entry(cline)
            .or_default()
            .set(slot, counter);
        let t_enq = t + self.crypto_latency;

        // Counter cache bookkeeping: write probes fill on miss without
        // stalling the write (§5.2.1 — the fresh counter is used for
        // encryption immediately; the fill is background traffic).
        let _ = self.probe_counter_cache(cline, t, stats);

        let enforce_ca = counter_atomic && self.design.enforces_counter_atomicity()
            || self.design.all_writes_counter_atomic()
            // Path-in-pair integrity (strict, pipelined) makes every
            // write counter-atomic: the leaf-to-root tree update only
            // stays consistent if the counter it digests lands with it.
            || self
                .integrity
                .as_ref()
                .is_some_and(|i| i.policy().persists_path_in_pair());

        if !enforce_ca {
            // Plain data write; the counter stays dirty on chip until a
            // counter_cache_writeback or an eviction (§4.2's reordering
            // window).
            let r = self.submit(NvmmTarget::Data(line), t_enq, stats);
            if let Some(cache) = self.counter_cache.as_mut() {
                cache.get_mut(&cline, true);
            }
            self.append(data_op, Domain::DataQueue, None, t_enq, r.accepted);
            // Integrity metadata stays dirty on chip alongside the dirty
            // counter: the MAC line (and, under lazy, the tree path)
            // reaches NVMM with the counter's own flush or on eviction.
            let mut evicted = Vec::new();
            self.update_metadata(line, counter, &data, None, &mut evicted, stats);
            for key in evicted {
                self.persist_meta_eviction(key, t_enq, stats);
            }
            // Stop-loss (Osiris-style): after `n` un-persisted counter
            // bumps on this counter line, force a write-back so the
            // post-crash candidate window stays bounded.
            if let Some(n) = self.stop_loss {
                let lag = self.counter_lag.entry(cline).or_default();
                *lag += 1;
                if *lag >= n {
                    *lag = 0;
                    self.persist_counter_line(cline, r.accepted, stats);
                    if let Some(cache) = self.counter_cache.as_mut() {
                        cache.clean(&cline);
                    }
                }
            }
            return r.accepted;
        }

        // Colocated: the pair's counter half is the packed
        // (counter, MAC) line — one metadata write instead of two.
        let packed = self.packed_meta();
        let counter_target = if packed {
            NvmmTarget::PackedMeta(cline)
        } else {
            NvmmTarget::Counter(cline)
        };
        let r = self.queues.submit_counter_atomic(
            &mut self.device,
            NvmmTarget::Data(line),
            counter_target,
            t_enq,
        );
        if r.pairing_wait > Time::ZERO {
            stats.pairing_stalls += 1;
            stats.pairing_stall += r.pairing_wait;
        }
        self.charge(NvmmTarget::Data(line), false, stats);
        self.charge(counter_target, r.counter_coalesced, stats);
        // The pair persisted this counter line's current snapshot; the
        // cached copy is clean.
        if let Some(cache) = self.counter_cache.as_mut() {
            cache.clean(&cline);
        }
        // Integrity metadata rides the pair: the MAC line always; the
        // leaf-to-root tree path too under strict, where the guarantee
        // additionally serializes through the root-update engine. All
        // pair members must share one guarantee instant or the
        // ready-bit atomicity tears.
        let mut guaranteed = r.ready;
        let mut evicted = Vec::new();
        // The pair's metadata members, and the tree nodes an injected
        // bug journals outside the pair instead, guaranteed the instant
        // the metadata queue accepted them.
        let mut pair_meta: Vec<JournalOp> = Vec::new();
        let mut bug_ops: Vec<(Time, JournalOp)> = Vec::new();
        let meta = self.update_metadata(
            line,
            counter,
            &data,
            Some(&mut pair_meta),
            &mut evicted,
            stats,
        );
        let pair_head = [data_op, self.counter_op(cline)];
        if let Some((mline, path)) = meta {
            let policy = self.integrity.as_ref().expect("checked").policy();
            if !packed {
                let rm = self.submit(NvmmTarget::Mac(mline), t_enq, stats);
                guaranteed = guaranteed.max(rm.accepted);
            }
            // Tree nodes written for this pair: its leaf-to-root path
            // (strict, pipelined) or a phoenix epoch summary.
            let in_pair = policy.persists_path_in_pair();
            let mut nodes = if in_pair { path } else { Vec::new() };
            if policy.phoenix() {
                let integ = self.integrity.as_mut().expect("checked");
                if let Some(seq) = integ.phoenix_epoch(cline) {
                    let counters = self.current_counter_line(cline);
                    nodes.push(crate::integrity::phoenix_summary(cline, &counters, seq));
                    stats.phoenix_epoch_writes += 1;
                }
            }
            let bug = self.injected_bug;
            let root = nodes.len().wrapping_sub(1);
            for (i, (node, digests)) in nodes.into_iter().enumerate() {
                let rn = self.submit(NvmmTarget::TreeNode(node), t_enq, stats);
                let op = JournalOp::TreeNode { node, digests };
                let bugged = match bug {
                    Some(InjectedBug::ParentFirst) => in_pair,
                    Some(InjectedBug::DropDependency) => in_pair && i == root,
                    Some(InjectedBug::StaleEpoch) => policy.phoenix(),
                    None => false,
                };
                if bugged {
                    bug_ops.push((rn.accepted, op));
                } else {
                    guaranteed = guaranteed.max(rn.accepted);
                    pair_meta.push(op);
                }
            }
            let integ = self.integrity.as_mut().expect("checked");
            if policy.serializes_root() {
                if bug != Some(InjectedBug::ParentFirst) {
                    if integ.root_free > guaranteed {
                        stats.root_update_stalls += 1;
                        stats.root_update_stall += integ.root_free - guaranteed;
                        guaranteed = integ.root_free;
                    }
                    guaranteed += self.crypto_latency;
                    integ.root_free = guaranteed;
                }
            } else if in_pair && bug != Some(InjectedBug::DropDependency) {
                // Pipelined: in-cache dependency tracking (Freij et al.)
                // only clamps this pair's guarantee to never run ahead of
                // the previous pair's — root writes overlap instead of
                // serializing through the root engine, so no crypto
                // latency is added and no stall taken.
                if integ.root_free > guaranteed {
                    stats.root_update_overlaps += 1;
                    guaranteed = integ.root_free;
                }
                integ.root_free = guaranteed;
            }
        }
        let pair = self.next_pair();
        for op in pair_head.into_iter().chain(pair_meta) {
            self.append(op, Domain::Pairing, pair, t_enq, guaranteed);
        }
        for (g, op) in bug_ops {
            self.append(op, Domain::MetadataQueue, None, t_enq, g);
        }
        for key in evicted {
            self.persist_meta_eviction(key, t_enq, stats);
        }
        guaranteed
    }

    /// `counter_cache_writeback()` for the counter line covering `line`
    /// (§4.3): flushes the dirty counter line to the (ready) counter
    /// write queue without invalidating it. Returns the guarantee time.
    pub fn counter_writeback(&mut self, line: LineAddr, t: Time, stats: &mut Stats) -> Time {
        stats.counter_cache_writebacks += 1;
        if !self.design.honors_counter_cache_writeback() {
            return t;
        }
        let cline = line.counter_line();
        let dirty = self
            .counter_cache
            .as_ref()
            .is_some_and(|c| c.is_dirty(&cline));
        if !dirty {
            return t;
        }
        let guaranteed = self.persist_counter_line(cline, t, stats);
        if let Some(cache) = self.counter_cache.as_mut() {
            cache.clean(&cline);
        }
        guaranteed
    }

    /// Builds the NVMM image as ADR would leave it for a crash at
    /// `crash_time` (`None` = run to completion: every journaled write
    /// lands).
    pub fn build_image(&self, crash_time: Option<Time>) -> NvmmImage {
        let mut img = NvmmImage::new();
        apply_journal(&mut img, || {
            self.journal
                .iter()
                .filter(move |rec| crash_time.is_none_or(|t| rec.guaranteed_at <= t))
                .map(|rec| &rec.op)
        });
        img
    }

    /// The full crash state at `crash_time` for the model checker: every
    /// guaranteed write plus the in-flight choice groups whose landing
    /// ADR leaves undefined (see [`crate::crashmc`]). The crash set's
    /// baseline image (no in-flight entry lands) equals
    /// [`MemoryController::build_image`] for the same instant.
    pub fn crash_set(&self, crash_time: Time) -> crate::crashmc::CrashSet {
        crate::crashmc::CrashSet::from_journal(&self.journal, crash_time)
    }

    /// The `(submitted_at, guaranteed_at)` window of every journaled
    /// write whose guarantee arrived strictly after its submission — the
    /// instants at which a crash leaves that write's landing undefined
    /// under ADR. Zero-width windows (plain writes accepted immediately)
    /// are omitted: no crash instant can observe them in flight.
    pub fn persist_windows(&self) -> Vec<(Time, Time)> {
        self.journal
            .iter()
            .filter(|r| r.guaranteed_at > r.submitted_at)
            .map(|r| (r.submitted_at, r.guaranteed_at))
            .collect()
    }

    /// The controller's encryption engine (for recovery decryption).
    pub fn engine(&self) -> &EncryptionEngine {
        &self.engine
    }

    /// Number of journaled NVMM writes (for tests).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The raw journal, in submission order (for the shard merge layer).
    pub(crate) fn journal(&self) -> &[JournalRecord] {
        &self.journal
    }

    /// Per-target NVMM write counts (for the shard layer's exact wear
    /// merge — tree nodes may be written from several shards).
    pub(crate) fn wear(&self) -> &FxHashMap<NvmmTarget, u64> {
        self.wear.counts()
    }

    /// Removes the first `n` journal records. The shard layer calls this
    /// during batched-journal compaction after folding the records into
    /// its base image; the controller itself never compacts.
    pub(crate) fn drain_journal_prefix(&mut self, n: usize) {
        self.journal.drain(..n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvmm::LineRead;

    fn ctl(design: Design) -> (MemoryController, Stats) {
        let cfg = SimConfig::single_core(design);
        (MemoryController::new(&cfg), Stats::new(1))
    }

    #[test]
    fn no_encryption_roundtrip() {
        let (mut c, mut s) = ctl(Design::NoEncryption);
        let data = [7u8; 64];
        let g = c.writeback(LineAddr(1), data, false, Time::ZERO, &mut s);
        let img = c.build_image(Some(g));
        assert_eq!(
            img.read_line(LineAddr(1), c.engine()),
            LineRead::Clean(data)
        );
        assert_eq!(s.bytes_written, 64);
    }

    #[test]
    fn co_located_write_is_atomic_at_any_crash_point() {
        let (mut c, mut s) = ctl(Design::CoLocated);
        let data = [9u8; 64];
        let g = c.writeback(LineAddr(2), data, false, Time::ZERO, &mut s);
        // Any crash at/after the guarantee sees a decryptable line.
        let img = c.build_image(Some(g));
        assert_eq!(
            img.read_line(LineAddr(2), c.engine()),
            LineRead::Clean(data)
        );
        // Before the guarantee: line simply absent (neither half landed).
        let img = c.build_image(Some(Time::ZERO.saturating_sub(Time::from_ps(1))));
        assert!(img.read_line(LineAddr(2), c.engine()).is_clean());
        assert_eq!(s.bytes_written, 72);
    }

    #[test]
    fn fca_write_decryptable_once_guaranteed() {
        let (mut c, mut s) = ctl(Design::Fca);
        let data = [3u8; 64];
        let g = c.writeback(LineAddr(5), data, false, Time::from_ns(10), &mut s);
        let img = c.build_image(Some(g));
        assert_eq!(
            img.read_line(LineAddr(5), c.engine()),
            LineRead::Clean(data)
        );
        // Data + counter both journaled.
        assert_eq!(s.nvmm_data_writes, 1);
        assert_eq!(s.nvmm_counter_writes, 1);
        assert_eq!(s.bytes_written, 128);
    }

    #[test]
    fn fca_never_exposes_half_a_pair() {
        let (mut c, mut s) = ctl(Design::Fca);
        let data = [4u8; 64];
        let g = c.writeback(LineAddr(6), data, false, Time::from_ns(10), &mut s);
        // Sweep a dense set of crash times around the write: the line is
        // either fully absent or fully decryptable — never garbled.
        for ps in 0..200 {
            let t = Time::from_ps(ps * 200);
            let img = c.build_image(Some(t));
            assert!(
                img.read_line(LineAddr(6), c.engine()).is_clean(),
                "crash at {t} must not observe a half-persisted pair (guarantee at {g})"
            );
        }
    }

    #[test]
    fn sca_plain_write_without_ccwb_garbles_on_crash() {
        // The paper's motivating failure: data persists, counter lives
        // only in the counter cache.
        let (mut c, mut s) = ctl(Design::Sca);
        let data = [8u8; 64];
        let g = c.writeback(LineAddr(7), data, false, Time::ZERO, &mut s);
        let img = c.build_image(Some(g + Time::from_ns(1000)));
        let r = img.read_line(LineAddr(7), c.engine());
        assert!(
            !r.is_clean(),
            "counter never persisted: decryption must fail"
        );
        assert_ne!(r.bytes(), data);
    }

    #[test]
    fn sca_ccwb_makes_line_recoverable() {
        let (mut c, mut s) = ctl(Design::Sca);
        let data = [8u8; 64];
        c.writeback(LineAddr(7), data, false, Time::ZERO, &mut s);
        let g = c.counter_writeback(LineAddr(7), Time::from_ns(100), &mut s);
        let img = c.build_image(Some(g));
        assert_eq!(
            img.read_line(LineAddr(7), c.engine()),
            LineRead::Clean(data)
        );
    }

    #[test]
    fn sca_counter_atomic_write_always_clean() {
        let (mut c, mut s) = ctl(Design::Sca);
        let data = [1u8; 64];
        c.writeback(LineAddr(9), data, true, Time::from_ns(5), &mut s);
        for ns in 0..600 {
            let img = c.build_image(Some(Time::from_ns(ns)));
            assert!(img.read_line(LineAddr(9), c.engine()).is_clean());
        }
        assert_eq!(s.counter_atomic_writes, 1);
    }

    #[test]
    fn unsafe_design_ignores_ccwb() {
        let (mut c, mut s) = ctl(Design::UnsafeNoAtomicity);
        let data = [2u8; 64];
        c.writeback(LineAddr(3), data, true, Time::ZERO, &mut s);
        let g = c.counter_writeback(LineAddr(3), Time::from_ns(100), &mut s);
        let img = c.build_image(Some(g + Time::from_ns(1_000_000)));
        assert!(
            !img.read_line(LineAddr(3), c.engine()).is_clean(),
            "unsafe design persists no counters, even for annotated writes"
        );
    }

    #[test]
    fn read_returns_latest_writeback_payload() {
        let (mut c, mut s) = ctl(Design::Sca);
        c.writeback(LineAddr(4), [1; 64], false, Time::ZERO, &mut s);
        c.writeback(LineAddr(4), [2; 64], false, Time::from_ns(50), &mut s);
        let (_, payload) = c.read(LineAddr(4), Time::from_ns(100), &mut s);
        assert_eq!(payload, [2; 64]);
    }

    #[test]
    fn unwritten_read_returns_zeros() {
        let (mut c, mut s) = ctl(Design::Sca);
        let (_, payload) = c.read(LineAddr(1234), Time::ZERO, &mut s);
        assert_eq!(payload, [0; 64]);
    }

    #[test]
    fn co_located_read_slower_than_counter_cache_hit() {
        let (mut c1, mut s1) = ctl(Design::CoLocated);
        let (done_serial, _) = c1.read(LineAddr(1), Time::ZERO, &mut s1);

        let (mut c2, mut s2) = ctl(Design::CoLocatedCounterCache);
        // Warm the counter cache with a write, then read.
        c2.writeback(LineAddr(1), [0; 64], false, Time::ZERO, &mut s2);
        let t = Time::from_ns(2000);
        let (done_overlap, _) = c2.read(LineAddr(1), t, &mut s2);
        assert!(
            done_serial > done_overlap - t,
            "serialized decrypt must cost more than overlapped"
        );
    }

    #[test]
    fn counter_cache_hit_and_miss_accounting() {
        let (mut c, mut s) = ctl(Design::Sca);
        c.writeback(LineAddr(10), [0; 64], false, Time::ZERO, &mut s); // miss (cold)
        c.writeback(LineAddr(11), [0; 64], false, Time::from_ns(1), &mut s); // hit (same cline)
        assert_eq!(s.counter_cache_misses, 1);
        assert_eq!(s.counter_cache_hits, 1);
    }

    #[test]
    fn ideal_ignores_ccwb_but_counts_it() {
        let (mut c, mut s) = ctl(Design::Ideal);
        c.writeback(LineAddr(1), [0; 64], false, Time::ZERO, &mut s);
        let before = s.nvmm_counter_writes;
        c.counter_writeback(LineAddr(1), Time::from_ns(10), &mut s);
        assert_eq!(
            s.nvmm_counter_writes, before,
            "ideal persists no counters on ccwb"
        );
        assert_eq!(s.counter_cache_writebacks, 1);
    }

    #[test]
    fn compressed_counters_charge_less_traffic() {
        let mut cfg = SimConfig::single_core(Design::Sca);
        cfg.compress_counters = true;
        let mut c = MemoryController::new(&cfg);
        let mut s = Stats::new(1);
        c.writeback(LineAddr(1), [1; 64], false, Time::ZERO, &mut s);
        let before = s.bytes_written;
        c.counter_writeback(LineAddr(1), Time::from_ns(100), &mut s);
        let counter_bytes = s.bytes_written - before;
        assert!(
            counter_bytes < 64,
            "clustered counters must compress below a raw line ({counter_bytes}B)"
        );
        assert!(
            counter_bytes >= 17,
            "compressed line still carries base + deltas"
        );
    }

    #[test]
    fn uncompressed_counters_charge_full_lines() {
        let (mut c, mut s) = ctl(Design::Sca);
        c.writeback(LineAddr(1), [1; 64], false, Time::ZERO, &mut s);
        let before = s.bytes_written;
        c.counter_writeback(LineAddr(1), Time::from_ns(100), &mut s);
        assert_eq!(s.bytes_written - before, 64);
    }

    #[test]
    fn wear_summary_counts_targets_and_hot_spots() {
        let (mut c, mut s) = ctl(Design::Fca);
        // Three writes to one line, one to another.
        for t in 0..3 {
            c.writeback(
                LineAddr(5),
                [t; 64],
                false,
                Time::from_ns(t as u64 * 1000),
                &mut s,
            );
        }
        c.writeback(LineAddr(900), [9; 64], false, Time::from_ns(5000), &mut s);
        let (distinct, max) = c.wear_summary();
        // Data lines 5 and 900 plus their counter lines (minus queue
        // coalescing effects on the counter side).
        assert!(
            distinct >= 3,
            "at least both data lines and one counter line"
        );
        assert!(max >= 3, "line 5 absorbed three writes (max={max})");
    }

    fn integ_ctl(
        policy: crate::config::IntegrityPolicy,
    ) -> (
        MemoryController,
        Stats,
        [u8; 16],
        crate::integrity::IntegritySpec,
    ) {
        let cfg = SimConfig::single_core(Design::Sca).with_integrity(policy);
        let spec = crate::integrity::IntegritySpec::from_config(&cfg);
        let key = cfg.key;
        (MemoryController::new(&cfg), Stats::new(1), key, spec)
    }

    #[test]
    fn strict_write_verifies_at_every_crash_instant() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, key, spec) = integ_ctl(IntegrityPolicy::Strict);
        let data = [5u8; 64];
        let g = c.writeback(LineAddr(12), data, false, Time::ZERO, &mut s);
        for ns in 0..800 {
            let img = c.build_image(Some(Time::from_ns(ns)));
            crate::integrity::verify_image(&img, spec, key)
                .unwrap_or_else(|e| panic!("crash at {ns}ns: {e}"));
        }
        let img = c.build_image(Some(g));
        assert_eq!(
            img.read_line(LineAddr(12), c.engine()),
            LineRead::Clean(data)
        );
        assert!(s.nvmm_metadata_writes > 0, "MAC + tree path were written");
    }

    #[test]
    fn strict_turns_every_write_into_a_full_metadata_pair() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, _, _) = integ_ctl(IntegrityPolicy::Strict);
        c.writeback(LineAddr(1), [1; 64], false, Time::ZERO, &mut s);
        // data + counter + MAC + tree_levels path nodes, all journaled.
        let cfg = SimConfig::single_core(Design::Sca);
        assert_eq!(c.journal_len(), 3 + cfg.tree_levels as usize);
        assert!(s.metadata_write_amplification() > 1.0);
    }

    #[test]
    fn lazy_ccwb_carries_the_mac_line_with_the_counter() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, key, spec) = integ_ctl(IntegrityPolicy::Lazy);
        let data = [6u8; 64];
        c.writeback(LineAddr(3), data, false, Time::ZERO, &mut s);
        let g = c.counter_writeback(LineAddr(3), Time::from_ns(100), &mut s);
        assert!(
            s.nvmm_metadata_writes >= 1,
            "the flush persists the MAC line too"
        );
        // At every crash instant the image passes the MAC oracle: the
        // counter and its MAC only ever persist together.
        for ns in 0..800 {
            let img = c.build_image(Some(Time::from_ns(ns)));
            crate::integrity::verify_image(&img, spec, key)
                .unwrap_or_else(|e| panic!("crash at {ns}ns: {e}"));
        }
        let img = c.build_image(Some(g));
        assert_eq!(
            img.read_line(LineAddr(3), c.engine()),
            LineRead::Clean(data)
        );
    }

    #[test]
    fn mac_only_persists_no_tree_nodes() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, key, spec) = integ_ctl(IntegrityPolicy::MacOnly);
        c.writeback(LineAddr(4), [9; 64], true, Time::ZERO, &mut s);
        let img = c.build_image(None);
        assert_eq!(img.tree_nodes().count(), 0);
        assert!(crate::integrity::verify_image(&img, spec, key).is_ok());
    }

    #[test]
    fn injected_tree_bug_lets_parents_race_ahead_of_children() {
        use crate::config::IntegrityPolicy;
        let cfg = SimConfig::single_core(Design::Sca)
            .with_integrity(IntegrityPolicy::Strict)
            .with_tree_bug();
        let spec = crate::integrity::IntegritySpec::from_config(&cfg);
        let key = cfg.key;
        let mut c = MemoryController::new(&cfg);
        let mut s = Stats::new(1);
        let g = c.writeback(LineAddr(12), [5; 64], false, Time::ZERO, &mut s);
        // Just before the pair's guarantee the eagerly-persisted tree
        // nodes are on NVMM but the counter line they digest is not.
        let img = c.build_image(Some(g.saturating_sub(Time::from_ps(1))));
        let err = crate::integrity::verify_image(&img, spec, key)
            .expect_err("parent-first ordering must be flagged");
        assert!(err.contains("never persisted"), "{err}");
    }

    #[test]
    fn same_line_overwrites_apply_in_order() {
        let (mut c, mut s) = ctl(Design::Fca);
        c.writeback(LineAddr(8), [1; 64], false, Time::ZERO, &mut s);
        c.writeback(LineAddr(8), [2; 64], false, Time::from_ns(1), &mut s);
        let img = c.build_image(None);
        assert_eq!(
            img.read_line(LineAddr(8), c.engine()),
            LineRead::Clean([2; 64])
        );
    }

    #[test]
    fn pipelined_verifies_at_every_crash_instant_with_zero_stalls() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, key, spec) = integ_ctl(IntegrityPolicy::Pipelined);
        // Back-to-back pairs: strict would serialize their root updates;
        // pipelined overlaps them and must still stay crash-clean.
        c.writeback(LineAddr(12), [5; 64], false, Time::ZERO, &mut s);
        c.writeback(LineAddr(13), [6; 64], false, Time::from_ps(1), &mut s);
        for ns in 0..1200 {
            let img = c.build_image(Some(Time::from_ns(ns)));
            crate::integrity::verify_image(&img, spec, key)
                .unwrap_or_else(|e| panic!("crash at {ns}ns: {e}"));
        }
        assert_eq!(s.root_update_stalls, 0, "pipelined never stalls the root");
        // Same journal shape as strict: the guarantee is identical,
        // only the serialization is gone.
        let cfg = SimConfig::single_core(Design::Sca);
        assert_eq!(c.journal_len(), 2 * (3 + cfg.tree_levels as usize));
    }

    #[test]
    fn pipelined_root_clamp_keeps_guarantees_monotonic() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, _, _) = integ_ctl(IntegrityPolicy::Pipelined);
        let mut last = Time::ZERO;
        for i in 0..6u64 {
            let g = c.writeback(LineAddr(i), [i as u8; 64], false, Time::from_ps(i), &mut s);
            assert!(
                g >= last,
                "pair guarantees must chain monotonically under the clamp"
            );
            last = g;
        }
    }

    #[test]
    fn colocated_pair_journals_one_packed_record() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, key, spec) = integ_ctl(IntegrityPolicy::Colocated);
        let data = [7u8; 64];
        let g = c.writeback(LineAddr(9), data, true, Time::ZERO, &mut s);
        // data + packed (counter, MAC) — two records where the split
        // layout journals three; that is the SecPM halving.
        assert_eq!(c.journal_len(), 2);
        assert_eq!(s.nvmm_packed_meta_writes, 1);
        assert_eq!(s.nvmm_counter_writes, 0, "no separate counter write");
        assert_eq!(s.nvmm_metadata_writes, 0, "no separate MAC write");
        for ns in 0..800 {
            let img = c.build_image(Some(Time::from_ns(ns)));
            crate::integrity::verify_image(&img, spec, key)
                .unwrap_or_else(|e| panic!("crash at {ns}ns: {e}"));
        }
        let img = c.build_image(Some(g));
        assert_eq!(
            img.read_line(LineAddr(9), c.engine()),
            LineRead::Clean(data)
        );
        assert!(
            !img.persisted_mac(LineAddr(9)).is_unwritten(),
            "the packed record must land the MAC with the counter"
        );
    }

    #[test]
    fn colocated_halves_metadata_amplification_vs_mac_only() {
        use crate::config::IntegrityPolicy;
        let (mut c1, mut s1, _, _) = integ_ctl(IntegrityPolicy::MacOnly);
        let (mut c2, mut s2, _, _) = integ_ctl(IntegrityPolicy::Colocated);
        for i in 0..16u64 {
            let t = Time::from_ns(i * 40);
            c1.writeback(LineAddr(i * 8), [i as u8; 64], true, t, &mut s1);
            c2.writeback(LineAddr(i * 8), [i as u8; 64], true, t, &mut s2);
        }
        let split = s1.metadata_write_amplification();
        let packed = s2.metadata_write_amplification();
        assert!(
            (packed - split / 2.0).abs() < 1e-9,
            "distinct counter lines: packed amp {packed} must be exactly half of {split}"
        );
    }

    #[test]
    fn phoenix_persists_only_epoch_summaries() {
        use crate::config::IntegrityPolicy;
        let cfg = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Phoenix);
        let spec = crate::integrity::IntegritySpec::from_config(&cfg);
        let key = cfg.key;
        let mut c = MemoryController::new(&cfg);
        let mut s = Stats::new(1);
        for i in 0..8u64 {
            c.writeback(
                LineAddr(i),
                [i as u8; 64],
                true,
                Time::from_ns(i * 50),
                &mut s,
            );
        }
        for ns in 0..2000 {
            let img = c.build_image(Some(Time::from_ns(ns)));
            crate::integrity::verify_image(&img, spec, key)
                .unwrap_or_else(|e| panic!("crash at {ns}ns: {e}"));
        }
        let img = c.build_image(None);
        assert!(
            img.tree_nodes()
                .all(|(n, _)| n.level == crate::integrity::PHOENIX_SUMMARY_LEVEL),
            "phoenix must never persist a real tree node"
        );
        // cfg.phoenix_epoch_every = 4 and all 8 writes hit counter line
        // 0, so the 4th and 8th pairs carried summaries.
        assert_eq!(s.phoenix_epoch_writes, 2);
        assert!(img.tree_nodes().count() >= 1);
    }

    #[test]
    fn injected_dropped_dependency_lets_the_root_race_its_children() {
        use crate::config::IntegrityPolicy;
        let cfg = SimConfig::single_core(Design::Sca)
            .with_integrity(IntegrityPolicy::Pipelined)
            .with_pipeline_bug();
        let spec = crate::integrity::IntegritySpec::from_config(&cfg);
        let key = cfg.key;
        let mut c = MemoryController::new(&cfg);
        let mut s = Stats::new(1);
        let g = c.writeback(LineAddr(12), [5; 64], false, Time::ZERO, &mut s);
        // Just before the pair's guarantee the dropped-dependency root
        // is on NVMM but the children it digests are not.
        let img = c.build_image(Some(g.saturating_sub(Time::from_ps(1))));
        let err = crate::integrity::verify_image(&img, spec, key)
            .expect_err("the dropped root dependency must be flagged");
        assert!(
            err.contains("never persisted") || err.contains("ahead of child"),
            "{err}"
        );
    }

    #[test]
    fn injected_stale_epoch_summary_is_flagged() {
        use crate::config::IntegrityPolicy;
        let mut cfg = SimConfig::single_core(Design::Sca)
            .with_integrity(IntegrityPolicy::Phoenix)
            .with_phoenix_bug();
        cfg.phoenix_epoch_every = 1;
        let spec = crate::integrity::IntegritySpec::from_config(&cfg);
        let key = cfg.key;
        let mut c = MemoryController::new(&cfg);
        let mut s = Stats::new(1);
        let g = c.writeback(LineAddr(12), [5; 64], true, Time::ZERO, &mut s);
        // Just before the pair's guarantee the eagerly-journaled epoch
        // summary claims a counter line that never landed.
        let img = c.build_image(Some(g.saturating_sub(Time::from_ps(1))));
        let err = crate::integrity::verify_image(&img, spec, key)
            .expect_err("the stale epoch summary must be flagged");
        assert!(err.contains("stale epoch"), "{err}");
    }

    /// Every controller write is charged exactly once: one wear record,
    /// one region counter (fresh or coalesced) and its byte cost. Runs
    /// one fixed mix of plain, counter-atomic and
    /// `counter_cache_writeback` writes through every design and every
    /// SCA integrity variant, with caches small enough that counter and
    /// metadata evictions persist lines mid-run, and pins the stats,
    /// journal and final image each configuration produced.
    #[test]
    fn write_path_accounting_is_conserved_and_pinned() {
        use crate::config::IntegrityPolicy;
        let small = |mut cfg: SimConfig| {
            cfg.counter_cache.capacity_bytes = 1024;
            cfg.metadata_cache.capacity_bytes = 256;
            cfg.metadata_cache.ways = 2;
            cfg.phoenix_epoch_every = 1;
            cfg
        };
        let sca = SimConfig::single_core(Design::Sca);
        let mut cases: Vec<(String, SimConfig)> = Design::ALL
            .iter()
            .map(|&d| (format!("{d:?}"), SimConfig::single_core(d)))
            .collect();
        for policy in &IntegrityPolicy::ALL[1..] {
            cases.push((
                format!("Sca+{policy:?}"),
                sca.clone().with_integrity(*policy),
            ));
        }
        let mut stop_loss = sca.clone();
        stop_loss.stop_loss = Some(2);
        cases.push(("Sca+stop_loss".into(), stop_loss));
        let mut compressed = sca.clone();
        compressed.compress_counters = true;
        cases.push(("Sca+compress".into(), compressed));
        cases.push((
            "Sca+ParentFirst".into(),
            sca.clone()
                .with_integrity(IntegrityPolicy::Strict)
                .with_tree_bug(),
        ));
        cases.push((
            "Sca+DropDependency".into(),
            sca.clone()
                .with_integrity(IntegrityPolicy::Pipelined)
                .with_pipeline_bug(),
        ));
        cases.push((
            "Sca+StaleEpoch".into(),
            sca.with_integrity(IntegrityPolicy::Phoenix)
                .with_phoenix_bug(),
        ));

        // (stats JSON digest, journal digest, final image fingerprint,
        // journal length) per case: a change to the order of queue
        // submissions, metadata touches or journal appends, or to what
        // a write is charged, moves at least one of them.
        #[rustfmt::skip]
        let pinned: [(&str, u64, u64, u128, usize); 18] = [
            ("NoEncryption", 0xe460e3973eec09e1, 0x13ca77a99aab94d9, 0xa14723cc3082397e08fadd93b04e1368, 56),
            ("Ideal", 0xf0e3e168b6b160a2, 0x1a09e8e611c1cbf7, 0xfbb00cd88488e0543aaef0aef9fd2ad2, 83),
            ("Sca", 0x735ae4ee5ee52052, 0x6cfd5ae9f5f3e4ce, 0x377573b3c5640dfc237be79dd6ab6506, 93),
            ("Fca", 0xb1be59766228e5fd, 0x07e15fbd0166139f, 0x4546e50e60608e02c3f11599687f3704, 112),
            ("CoLocated", 0xedb57fd9d9262412, 0x6d8818087f8e0ddf, 0x03d80f1b475a84124d2e1eb3bccae324, 56),
            ("CoLocatedCounterCache", 0xedb57fd9d9262412, 0x6d8818087f8e0ddf, 0x03d80f1b475a84124d2e1eb3bccae324, 56),
            ("UnsafeNoAtomicity", 0xf0e3e168b6b160a2, 0x1a09e8e611c1cbf7, 0xfbb00cd88488e0543aaef0aef9fd2ad2, 83),
            ("Sca+MacOnly", 0x7010816f8249872d, 0x2935e42c2c0c96e4, 0x914aae037780311f1912afdbf7121f56, 148),
            ("Sca+Lazy", 0x69bf253f1b7eec86, 0x06a9ee19290d3b03, 0x4ca2e16a5bf2ac622a83103766a8906a, 724),
            ("Sca+Strict", 0xa5f11cf7aa147c3b, 0x78247e939d098583, 0x4ca2e16a5bf2ac622a83103766a8906a, 728),
            ("Sca+Pipelined", 0x110cb1675c8fec53, 0x5d2bcc84f0250a76, 0x4ca2e16a5bf2ac622a83103766a8906a, 728),
            ("Sca+Phoenix", 0x761138ae64d6af2f, 0xeeb2a5e9d2b9a10e, 0x7bd5344e44f0eb71cf32958b9755f92a, 184),
            ("Sca+Colocated", 0x78c75bfd5d2077bd, 0xf7f084ce01690d20, 0x914aae037780311f1912afdbf7121f56, 102),
            ("Sca+stop_loss", 0xc2ca3a4fbeedd4bf, 0x4c1d20d5704bc09f, 0x244a9ed8c9b85f2d3863c52ebe070f42, 97),
            ("Sca+compress", 0x5c63a7a9770762fe, 0x6cfd5ae9f5f3e4ce, 0x377573b3c5640dfc237be79dd6ab6506, 93),
            ("Sca+ParentFirst", 0x9cdae30c4dfc87f7, 0x59c06bd2d8a51340, 0x4ca2e16a5bf2ac622a83103766a8906a, 728),
            ("Sca+DropDependency", 0x9cdae30c4dfc87f7, 0x8919c37cc9c461b0, 0x4ca2e16a5bf2ac622a83103766a8906a, 728),
            ("Sca+StaleEpoch", 0x761138ae64d6af2f, 0xd229d7236cb7b3ef, 0x7bd5344e44f0eb71cf32958b9755f92a, 184),
        ];
        assert_eq!(cases.len(), pinned.len());
        for ((name, cfg), want) in cases.into_iter().zip(pinned) {
            assert_eq!(name, want.0);
            let mut c = MemoryController::new(&small(cfg));
            let mut s = Stats::new(1);
            for i in 0..48u64 {
                let line = LineAddr((i * 37) % 400);
                let t = Time::from_ns(i * 25);
                c.writeback(line, [i as u8; 64], i % 3 == 1, t, &mut s);
                if i % 6 == 0 {
                    // Same line again while the first is still queued.
                    c.writeback(line, [!(i as u8); 64], false, t + Time::from_ns(1), &mut s);
                }
                if i % 4 == 3 {
                    c.counter_writeback(line, t + Time::from_ns(5), &mut s);
                }
            }
            let requests = s.nvmm_writes() + s.coalesced_writes();
            assert_eq!(s.wear_line_writes, requests, "{name}: stats wear");
            assert_eq!(
                c.wear_report(1).total_writes,
                requests,
                "{name}: wear tracker"
            );
            let stats = nvmm_json::ToJson::to_json(&s).to_compact();
            let journal = format!("{:?}", c.journal());
            let got = (
                crate::integrity::digest64(stats.as_bytes()),
                crate::integrity::digest64(journal.as_bytes()),
                c.build_image(None).fingerprint(),
                c.journal_len(),
            );
            assert_eq!(got, (want.1, want.2, want.3, want.4), "{name}");
        }
    }
}
