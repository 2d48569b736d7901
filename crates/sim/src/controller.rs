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
use crate::config::{Design, SimConfig};
use crate::device::{AccessKind, PcmDevice, WearReport, WearTracker};
use crate::integrity::{DigestLine, IntegrityState, MetaKey};
use crate::nvmm::NvmmImage;
use crate::stats::Stats;
use crate::time::Time;
use crate::wq::{PlainReceipt, WriteQueues};
use fxhash::FxHashMap;
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
    /// Fault injection: journal strict-policy tree-path updates as
    /// independent instantly-guaranteed writes instead of riding the
    /// counter-atomic pair — the parent-ahead-of-child ordering bug the
    /// model checker must catch.
    tree_bug_parent_first: bool,
    /// Fault injection (pipelined): journal the root node outside the
    /// pair with an instant guarantee — a dropped dependency in the
    /// in-cache tracker lets the root outrun the path it digests.
    tree_bug_drop_dependency: bool,
    /// Fault injection (phoenix): journal the epoch summary outside its
    /// pair with an instant guarantee, so a crash can persist a summary
    /// claiming counter state that never landed.
    phoenix_bug_stale_epoch: bool,
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
            tree_bug_parent_first: config.tree_bug_parent_first,
            tree_bug_drop_dependency: config.tree_bug_drop_dependency,
            phoenix_bug_stale_epoch: config.phoenix_bug_stale_epoch,
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

    /// Submits a MAC-line or tree-node write to the metadata write
    /// queue, charging stats and wear.
    fn submit_meta_write(
        &mut self,
        target: NvmmTarget,
        t: Time,
        stats: &mut Stats,
    ) -> PlainReceipt {
        let receipt = self.queues.submit_plain(&mut self.device, target, t);
        stats.wear_line_writes += 1;
        self.wear.record(target);
        if receipt.coalesced {
            stats.coalesced_metadata_writes += 1;
        } else {
            stats.nvmm_metadata_writes += 1;
            stats.bytes_written += 64;
        }
        receipt
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
        if self
            .integrity
            .as_ref()
            .is_some_and(|i| i.policy().packed_meta())
        {
            // Colocated: the two halves are one packed line — a single
            // write, atomic by construction, no pair id needed.
            let r = self
                .queues
                .submit_plain(&mut self.device, NvmmTarget::PackedMeta(cline), t);
            stats.wear_line_writes += 1;
            self.wear.record(NvmmTarget::PackedMeta(cline));
            if r.coalesced {
                stats.coalesced_packed_meta_writes += 1;
            } else {
                stats.nvmm_packed_meta_writes += 1;
                stats.bytes_written += self.counter_line_cost(cline) + 64;
            }
            let integ = self.integrity.as_mut().expect("checked above");
            integ.clean(MetaKey::Mac(mline));
            let macs = integ.mac_snapshot(mline);
            self.journal.push(JournalRecord {
                submitted_at: t,
                guaranteed_at: r.accepted,
                pair: None,
                domain: crate::crashmc::Domain::CounterQueue,
                shard: self.shard_id,
                op: JournalOp::PackedMeta {
                    cline,
                    counters: self.current_counter_line(cline),
                    macs,
                },
            });
            if let Some(cache) = self.counter_cache.as_mut() {
                cache.clean(&cline);
            }
            return r.accepted;
        }
        let rc = self
            .queues
            .submit_plain(&mut self.device, NvmmTarget::Counter(cline), t);
        stats.wear_line_writes += 1;
        self.wear.record(NvmmTarget::Counter(cline));
        if rc.coalesced {
            stats.coalesced_counter_writes += 1;
        } else {
            stats.nvmm_counter_writes += 1;
            stats.bytes_written += self.counter_line_cost(cline);
        }
        let rm = self.submit_meta_write(NvmmTarget::Mac(mline), t, stats);
        let guaranteed = rc.accepted.max(rm.accepted);
        let pair = Some(self.next_pair);
        self.next_pair += 1;
        let integ = self.integrity.as_mut().expect("integrity enabled");
        integ.clean(MetaKey::Mac(mline));
        let macs = integ.mac_snapshot(mline);
        self.journal.push(JournalRecord {
            submitted_at: t,
            guaranteed_at: guaranteed,
            pair,
            domain: crate::crashmc::Domain::CounterQueue,
            shard: self.shard_id,
            op: JournalOp::CounterLine {
                cline,
                counters: self.current_counter_line(cline),
            },
        });
        self.journal.push(JournalRecord {
            submitted_at: t,
            guaranteed_at: guaranteed,
            pair,
            domain: crate::crashmc::Domain::CounterQueue,
            shard: self.shard_id,
            op: JournalOp::MacLine { mline, macs },
        });
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
            self.flush_counter_mac_pair(cline, t, stats)
        } else {
            self.write_counter_line(cline, t, stats)
        }
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
                let r = self.submit_meta_write(NvmmTarget::TreeNode(node), t, stats);
                let digests = self
                    .integrity
                    .as_ref()
                    .expect("integrity enabled")
                    .tree_snapshot(node);
                self.journal.push(JournalRecord {
                    submitted_at: t,
                    guaranteed_at: r.accepted,
                    pair: None,
                    domain: crate::crashmc::Domain::MetadataQueue,
                    shard: self.shard_id,
                    op: JournalOp::TreeNode { node, digests },
                });
            }
        }
    }

    /// Submits a counter-line write (eviction or explicit writeback);
    /// always ready on acceptance. Returns the guarantee time.
    fn write_counter_line(&mut self, cline: CounterLineAddr, t: Time, stats: &mut Stats) -> Time {
        let receipt = self
            .queues
            .submit_plain(&mut self.device, NvmmTarget::Counter(cline), t);
        stats.wear_line_writes += 1;
        self.wear.record(NvmmTarget::Counter(cline));
        if receipt.coalesced {
            stats.coalesced_counter_writes += 1;
        } else {
            stats.nvmm_counter_writes += 1;
            stats.bytes_written += self.counter_line_cost(cline);
        }
        self.journal.push(JournalRecord {
            submitted_at: t,
            guaranteed_at: receipt.accepted,
            pair: None,
            domain: crate::crashmc::Domain::CounterQueue,
            shard: self.shard_id,
            op: JournalOp::CounterLine {
                cline,
                counters: self.current_counter_line(cline),
            },
        });
        receipt.accepted
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
        match self.design {
            Design::NoEncryption => {
                let r = self
                    .queues
                    .submit_plain(&mut self.device, NvmmTarget::Data(line), t);
                stats.wear_line_writes += 1;
                self.wear.record(NvmmTarget::Data(line));
                if r.coalesced {
                    stats.coalesced_data_writes += 1;
                } else {
                    stats.nvmm_data_writes += 1;
                    stats.bytes_written += 64;
                }
                self.journal.push(JournalRecord {
                    submitted_at: t,
                    guaranteed_at: r.accepted,
                    pair: None,
                    domain: crate::crashmc::Domain::DataQueue,
                    shard: self.shard_id,
                    op: JournalOp::Plain { line, data },
                });
                r.accepted
            }
            Design::CoLocated | Design::CoLocatedCounterCache => {
                let enc = self.engine.encrypt(line.0, &data);
                if self.design == Design::CoLocatedCounterCache {
                    // Keep the counter cache warm for future reads; the
                    // counter itself travels with the line.
                    if let Some(cache) = self.counter_cache.as_mut() {
                        cache.insert(line.counter_line(), (), false);
                    }
                }
                let t_enc = t + self.crypto_latency;
                let r = self
                    .queues
                    .submit_plain(&mut self.device, NvmmTarget::Data(line), t_enc);
                stats.wear_line_writes += 1;
                self.wear.record(NvmmTarget::Data(line)); // widened line
                if r.coalesced {
                    stats.coalesced_data_writes += 1;
                } else {
                    stats.nvmm_data_writes += 1;
                    stats.bytes_written += 72;
                }
                self.journal.push(JournalRecord {
                    submitted_at: t_enc,
                    guaranteed_at: r.accepted,
                    pair: None,
                    domain: crate::crashmc::Domain::DataQueue,
                    shard: self.shard_id,
                    op: JournalOp::CoLocated {
                        line,
                        ciphertext: enc.ciphertext,
                        counter: enc.counter,
                    },
                });
                r.accepted
            }
            Design::Ideal | Design::Fca | Design::Sca | Design::UnsafeNoAtomicity => {
                self.writeback_separate(line, data, counter_atomic, t, stats)
            }
        }
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
        let current = self.current_counter_line(cline).get(slot);
        let counter = current.bump();
        let ciphertext = self.engine.encrypt_with(line.0, &data, counter);
        let enc = nvmm_crypto::EncryptedWrite {
            ciphertext,
            counter,
        };
        self.counter_state
            .entry(cline)
            .or_default()
            .set(slot, enc.counter);
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
        // Colocated: the pair's counter half is the packed
        // (counter, MAC) line — one metadata write instead of two.
        let packed = self
            .integrity
            .as_ref()
            .is_some_and(|i| i.policy().packed_meta());

        if enforce_ca {
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
            stats.nvmm_data_writes += 1;
            stats.bytes_written += 64;
            stats.wear_line_writes += 1;
            self.wear.record(NvmmTarget::Data(line));
            stats.wear_line_writes += 1;
            self.wear.record(counter_target);
            if r.counter_coalesced {
                if packed {
                    stats.coalesced_packed_meta_writes += 1;
                } else {
                    stats.coalesced_counter_writes += 1;
                }
            } else if packed {
                stats.nvmm_packed_meta_writes += 1;
                stats.bytes_written += self.counter_line_cost(cline) + 64;
            } else {
                stats.nvmm_counter_writes += 1;
                stats.bytes_written += self.counter_line_cost(cline);
            }
            // The pair persisted this counter line's current snapshot;
            // the cached copy is clean.
            if let Some(cache) = self.counter_cache.as_mut() {
                cache.clean(&cline);
            }
            // Integrity metadata rides the pair: the MAC line always;
            // the leaf-to-root tree path too under strict, where the
            // guarantee additionally serializes through the root-update
            // engine. All pair members must share one guarantee instant
            // or the ready-bit atomicity tears.
            let mut guaranteed = r.ready;
            let mut pair_ops: Vec<JournalOp> = Vec::new();
            let mut bug_ops: Vec<(Time, JournalOp)> = Vec::new();
            let mut evicted: Vec<MetaKey> = Vec::new();
            if self.integrity.is_some() {
                let policy = self.integrity.as_ref().expect("checked").policy();
                let mline =
                    self.integrity
                        .as_mut()
                        .expect("checked")
                        .record_mac(line, enc.counter, &data);
                if !packed {
                    let rm = self.submit_meta_write(NvmmTarget::Mac(mline), t_enq, stats);
                    guaranteed = guaranteed.max(rm.accepted);
                }
                let counters_bytes = self.current_counter_line(cline).to_bytes();
                {
                    let integ = self.integrity.as_mut().expect("checked");
                    if !packed {
                        pair_ops.push(JournalOp::MacLine {
                            mline,
                            macs: integ.mac_snapshot(mline),
                        });
                    }
                    // Packed or separate, the MAC line's cached copy just
                    // persisted with the pair: resident and clean.
                    let (victim, hit) = integ.touch(MetaKey::Mac(mline), false);
                    if hit {
                        stats.tree_cache_hits += 1;
                    } else {
                        stats.tree_cache_misses += 1;
                    }
                    evicted.extend(victim);
                }
                if policy.has_tree() {
                    let in_pair = policy.persists_path_in_pair();
                    // Strict/pipelined persist the path with the pair, so
                    // the cached nodes stay clean; lazy leaves them dirty
                    // for eviction-time persistence; phoenix keeps them
                    // clean too — its tree is reconstructible state that
                    // never reaches NVMM.
                    let node_dirty = !in_pair && !policy.phoenix();
                    let path = {
                        let integ = self.integrity.as_mut().expect("checked");
                        let path = integ.update_tree_path(cline, &counters_bytes);
                        for (node, _) in &path {
                            let (victim, hit) = integ.touch(MetaKey::Node(*node), node_dirty);
                            if hit {
                                stats.tree_cache_hits += 1;
                            } else {
                                stats.tree_cache_misses += 1;
                            }
                            evicted.extend(victim);
                        }
                        path
                    };
                    if in_pair {
                        let path_len = path.len();
                        for (i, (node, digests)) in path.iter().enumerate() {
                            let rn =
                                self.submit_meta_write(NvmmTarget::TreeNode(*node), t_enq, stats);
                            let op = JournalOp::TreeNode {
                                node: *node,
                                digests: *digests,
                            };
                            let bugged = self.tree_bug_parent_first
                                || (self.tree_bug_drop_dependency && i + 1 == path_len);
                            if bugged {
                                bug_ops.push((rn.accepted, op));
                            } else {
                                guaranteed = guaranteed.max(rn.accepted);
                                pair_ops.push(op);
                            }
                        }
                        if policy.serializes_root() {
                            if !self.tree_bug_parent_first {
                                let integ = self.integrity.as_mut().expect("checked");
                                if integ.root_free > guaranteed {
                                    stats.root_update_stalls += 1;
                                    stats.root_update_stall += integ.root_free - guaranteed;
                                    guaranteed = integ.root_free;
                                }
                                guaranteed += self.crypto_latency;
                                integ.root_free = guaranteed;
                            }
                        } else if !self.tree_bug_drop_dependency {
                            // Pipelined: in-cache dependency tracking
                            // (Freij et al.) only clamps this pair's
                            // guarantee to never run ahead of the previous
                            // pair's — root writes overlap instead of
                            // serializing through the root engine, so no
                            // crypto latency is added and no stall taken.
                            let integ = self.integrity.as_mut().expect("checked");
                            if integ.root_free > guaranteed {
                                stats.root_update_overlaps += 1;
                                guaranteed = integ.root_free;
                            }
                            integ.root_free = guaranteed;
                        }
                    }
                    if policy.phoenix() {
                        let seq = self
                            .integrity
                            .as_mut()
                            .expect("checked")
                            .phoenix_epoch(cline);
                        if let Some(seq) = seq {
                            let counters = self.current_counter_line(cline);
                            let (node, digests) =
                                crate::integrity::phoenix_summary(cline, &counters, seq);
                            let rs =
                                self.submit_meta_write(NvmmTarget::TreeNode(node), t_enq, stats);
                            stats.phoenix_epoch_writes += 1;
                            let op = JournalOp::TreeNode { node, digests };
                            if self.phoenix_bug_stale_epoch {
                                bug_ops.push((rs.accepted, op));
                            } else {
                                guaranteed = guaranteed.max(rs.accepted);
                                pair_ops.push(op);
                            }
                        }
                    }
                }
            }
            let pair = Some(self.next_pair);
            self.next_pair += 1;
            self.journal.push(JournalRecord {
                submitted_at: t_enq,
                guaranteed_at: guaranteed,
                pair,
                domain: crate::crashmc::Domain::Pairing,
                shard: self.shard_id,
                op: JournalOp::Encrypted {
                    line,
                    ciphertext: enc.ciphertext,
                    counter: enc.counter,
                },
            });
            let counter_op = if self
                .integrity
                .as_ref()
                .is_some_and(|i| i.policy().packed_meta())
            {
                // Colocated (SecPM): the counter and MAC ride one packed
                // metadata line, so the pair journals a single record
                // covering both cells.
                let macs = self
                    .integrity
                    .as_ref()
                    .expect("checked")
                    .mac_snapshot(MacLineAddr(cline.0));
                JournalOp::PackedMeta {
                    cline,
                    counters: self.current_counter_line(cline),
                    macs,
                }
            } else {
                JournalOp::CounterLine {
                    cline,
                    counters: self.current_counter_line(cline),
                }
            };
            self.journal.push(JournalRecord {
                submitted_at: t_enq,
                guaranteed_at: guaranteed,
                pair,
                domain: crate::crashmc::Domain::Pairing,
                shard: self.shard_id,
                op: counter_op,
            });
            for op in pair_ops {
                self.journal.push(JournalRecord {
                    submitted_at: t_enq,
                    guaranteed_at: guaranteed,
                    pair,
                    domain: crate::crashmc::Domain::Pairing,
                    shard: self.shard_id,
                    op,
                });
            }
            // The injected bug: tree-path updates journaled outside the
            // pair, guaranteed the instant the metadata queue accepted
            // them — parents race ahead of the children they digest.
            for (g, op) in bug_ops {
                self.journal.push(JournalRecord {
                    submitted_at: t_enq,
                    guaranteed_at: g,
                    pair: None,
                    domain: crate::crashmc::Domain::MetadataQueue,
                    shard: self.shard_id,
                    op,
                });
            }
            for key in evicted {
                self.persist_meta_eviction(key, t_enq, stats);
            }
            guaranteed
        } else {
            // Plain data write; the counter stays dirty on chip until a
            // counter_cache_writeback or an eviction (§4.2's reordering
            // window).
            let r = self
                .queues
                .submit_plain(&mut self.device, NvmmTarget::Data(line), t_enq);
            stats.wear_line_writes += 1;
            self.wear.record(NvmmTarget::Data(line));
            if r.coalesced {
                stats.coalesced_data_writes += 1;
            } else {
                stats.nvmm_data_writes += 1;
                stats.bytes_written += 64;
            }
            if let Some(cache) = self.counter_cache.as_mut() {
                cache.get_mut(&cline, true);
            }
            self.journal.push(JournalRecord {
                submitted_at: t_enq,
                guaranteed_at: r.accepted,
                pair: None,
                domain: crate::crashmc::Domain::DataQueue,
                shard: self.shard_id,
                op: JournalOp::Encrypted {
                    line,
                    ciphertext: enc.ciphertext,
                    counter: enc.counter,
                },
            });
            // Integrity metadata stays dirty on chip alongside the dirty
            // counter: the MAC line (and, under lazy, the tree path)
            // reaches NVMM with the counter's own flush or on eviction.
            if self.integrity.is_some() {
                let policy = self.integrity.as_ref().expect("checked").policy();
                let counters_bytes = self.current_counter_line(cline).to_bytes();
                let mut evicted: Vec<MetaKey> = Vec::new();
                {
                    let integ = self.integrity.as_mut().expect("checked");
                    let mline = integ.record_mac(line, enc.counter, &data);
                    let (victim, hit) = integ.touch(MetaKey::Mac(mline), true);
                    if hit {
                        stats.tree_cache_hits += 1;
                    } else {
                        stats.tree_cache_misses += 1;
                    }
                    evicted.extend(victim);
                    if policy.has_tree() {
                        // Phoenix never persists the tree, so its nodes
                        // stay clean in cache; other policies leave them
                        // dirty for eviction-time persistence.
                        let node_dirty = !policy.phoenix();
                        for (node, _) in integ.update_tree_path(cline, &counters_bytes) {
                            let (victim, hit) = integ.touch(MetaKey::Node(node), node_dirty);
                            if hit {
                                stats.tree_cache_hits += 1;
                            } else {
                                stats.tree_cache_misses += 1;
                            }
                            evicted.extend(victim);
                        }
                    }
                }
                for key in evicted {
                    self.persist_meta_eviction(key, t_enq, stats);
                }
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
            r.accepted
        }
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
        for rec in &self.journal {
            if let Some(t) = crash_time {
                if rec.guaranteed_at > t {
                    continue;
                }
            }
            rec.op.apply(&mut img);
        }
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
}
