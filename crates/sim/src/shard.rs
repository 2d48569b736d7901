//! Channel-sharded controller complex.
//!
//! The paper evaluates a single memory controller; service-scale load
//! (ROADMAP open item 3) needs several independent channels. A
//! [`ShardedController`] owns `N` [`MemoryController`] shards — each
//! with its own write-queue complex, pairing coordinator, counter-cache
//! slice, integrity-metadata queue, and banked PCM device — behind the
//! deterministic [`ShardMap`] interleave: a line, its counter line, and
//! its MAC line always land on the same shard, so the counter-atomic
//! pairing protocol never crosses a channel boundary.
//!
//! # Journal merge
//!
//! Each shard journals its NVMM writes independently. Whole-system
//! questions — the crash image, the model checker's crash set, persist
//! windows — are answered over the *merged* journal: a k-way merge that
//! repeatedly pops the front record with the smallest
//! `(submitted_at, shard_index)` key. The merge never reorders records
//! within a shard, so with one shard it is the identity and every
//! derived artifact is bit-identical to the pre-sharding pipeline. The
//! model checker sees `(shard, domain)` serialization domains
//! ([`crate::crashmc`]), so per-channel drain order stays prefix-closed
//! while cross-channel landings interleave freely — exactly ADR's
//! guarantee when each channel has its own residual-energy drain.
//!
//! # Batched-journal compaction
//!
//! Completion-only runs over very long traces would otherwise hold one
//! journal record per NVMM write. `ShardedController::compact_through`
//! folds the stable merged prefix (every record submitted strictly
//! before the live-core watermark) into a base [`NvmmImage`] and drops
//! the records. Compaction is only sound when no crash analysis is
//! requested: [`ShardedController::crash_set`] and crash-time
//! [`ShardedController::build_image`] panic once records have been
//! folded, and [`crate::system::System`] only compacts under
//! [`crate::system::CrashSpec::None`].

use crate::addr::{LineAddr, NvmmTarget, ShardMap};
use crate::config::{CacheGeometry, Design, SimConfig};
use crate::controller::{JournalRecord, MemoryController};
use crate::crashmc::CrashSet;
use crate::device::WearReport;
use crate::nvmm::NvmmImage;
use crate::stats::Stats;
use crate::time::Time;
use fxhash::FxHashMap;
use nvmm_crypto::engine::EncryptionEngine;
use nvmm_crypto::LineData;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Divides a cache's capacity across `n` shards at set granularity,
/// keeping at least one full set per slice. The split is exact: the
/// `total_sets % n` remainder sets go to the low-index shards, so the
/// per-shard capacities sum to the unsharded geometry's whole-set
/// capacity for every shard count — including non-powers of two —
/// whenever there are at least `n` sets to hand out. With one shard the
/// geometry is returned untouched, so the single-shard configuration is
/// bit-identical to the pre-sharding pipeline.
fn slice_geometry(g: CacheGeometry, shard: usize, n: usize) -> CacheGeometry {
    if n == 1 {
        return g;
    }
    let set_bytes = g.ways as u64 * 64;
    let total_sets = g.capacity_bytes / set_bytes;
    let base = total_sets / n as u64;
    let extra = ((shard as u64) < total_sets % n as u64) as u64;
    CacheGeometry {
        capacity_bytes: (base + extra).max(1) * set_bytes,
        ..g
    }
}

/// `N` channel-sharded memory controllers behind a deterministic
/// address interleave (see the module docs).
#[derive(Debug)]
pub struct ShardedController {
    map: ShardMap,
    shards: Vec<MemoryController>,
    /// Image accumulated from compacted journal records; empty until
    /// `ShardedController::compact_through` first folds something.
    base: NvmmImage,
    /// Merge cursor per shard: records before it are folded into `base`.
    folded: Vec<usize>,
    /// Total journal records folded into `base` so far.
    compacted: u64,
}

impl ShardedController {
    /// Builds `config.shards` controllers. The shared counter and
    /// integrity-metadata caches are sliced across shards at set
    /// granularity (total capacity preserved exactly — remainder sets
    /// go to the low-index shards); queues, banks, and the bus are
    /// per-channel resources and stay full-size in every shard.
    pub fn new(config: &SimConfig) -> Self {
        let map = ShardMap::new(config.shards);
        let shards = (0..config.shards)
            .map(|s| {
                let mut cfg = config.clone();
                cfg.counter_cache = slice_geometry(config.counter_cache, s, config.shards);
                cfg.metadata_cache = slice_geometry(config.metadata_cache, s, config.shards);
                MemoryController::new_shard(&cfg, s)
            })
            .collect();
        Self {
            map,
            shards,
            base: NvmmImage::new(),
            folded: vec![0; config.shards],
            compacted: 0,
        }
    }

    /// Number of channel shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The address-interleaving map.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// The design every shard implements.
    pub fn design(&self) -> Design {
        self.shards[0].design()
    }

    /// The encryption engine (identical across shards — one key).
    pub fn engine(&self) -> &EncryptionEngine {
        self.shards[0].engine()
    }

    /// Routes a demand read to the owning shard.
    pub fn read(&mut self, line: LineAddr, t: Time, stats: &mut Stats) -> (Time, LineData) {
        let s = self.map.shard_of(line);
        self.shards[s].read(line, t, stats)
    }

    /// Routes a write-back to the owning shard; returns the ADR
    /// guarantee instant.
    pub fn writeback(
        &mut self,
        line: LineAddr,
        data: LineData,
        counter_atomic: bool,
        t: Time,
        stats: &mut Stats,
    ) -> Time {
        let s = self.map.shard_of(line);
        self.shards[s].writeback(line, data, counter_atomic, t, stats)
    }

    /// Routes an explicit counter-cache write-back to the shard owning
    /// `line` (and therefore its counter line).
    pub fn counter_writeback(&mut self, line: LineAddr, t: Time, stats: &mut Stats) -> Time {
        let s = self.map.shard_of(line);
        self.shards[s].counter_writeback(line, t, stats)
    }

    /// Instantaneous (data, counter) write-queue occupancy at `t`,
    /// summed over shards.
    pub fn write_queue_depths(&self, t: Time) -> (usize, usize) {
        self.shards.iter().fold((0, 0), |(d, c), ctl| {
            let (dd, cc) = ctl.write_queue_depths(t);
            (d + dd, c + cc)
        })
    }

    /// The instant every shard's write-queue complex is drained.
    pub fn quiesce_time(&self) -> Time {
        self.shards
            .iter()
            .map(|c| c.quiesce_time())
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Wear summary over all NVMM writes on all shards: (distinct
    /// targets written, maximum writes to any single target). Tree
    /// nodes may be written from several shards, so per-target counts
    /// are merged exactly rather than summed per shard.
    pub fn wear_summary(&self) -> (u64, u64) {
        if self.shards.len() == 1 {
            return self.shards[0].wear_summary();
        }
        let mut merged: FxHashMap<NvmmTarget, u64> = FxHashMap::default();
        for ctl in &self.shards {
            for (target, count) in ctl.wear() {
                *merged.entry(*target).or_insert(0) += count;
            }
        }
        let distinct = merged.len() as u64;
        let max = merged.values().copied().max().unwrap_or(0);
        (distinct, max)
    }

    /// Full wear/endurance report over all shards at the given cell
    /// endurance. Like [`ShardedController::wear_summary`], per-target
    /// counts are merged exactly across shards first, so the report is
    /// identical at any shard count for the same write stream.
    pub fn wear_report(&self, cell_endurance: u64) -> WearReport {
        if self.shards.len() == 1 {
            return self.shards[0].wear_report(cell_endurance);
        }
        let mut merged: FxHashMap<NvmmTarget, u64> = FxHashMap::default();
        for ctl in &self.shards {
            for (target, count) in ctl.wear() {
                *merged.entry(*target).or_insert(0) += count;
            }
        }
        WearReport::from_counts(merged.values().copied(), cell_endurance)
    }

    /// Total journaled NVMM writes, including compacted records.
    pub fn journal_len(&self) -> usize {
        self.shards.iter().map(|c| c.journal_len()).sum::<usize>() + self.compacted as usize
    }

    /// Number of journal records folded into the base image so far.
    pub fn compacted_records(&self) -> u64 {
        self.compacted
    }

    /// Visits the live (un-compacted) journal in merged order: the
    /// k-way merge by `(submitted_at, shard_index)` described in the
    /// module docs, streamed through a [`BinaryHeap`] of per-shard
    /// cursors — O(shards) state and O(log shards) per record, never
    /// materializing the merged list. Within a shard, records are
    /// visited in submission order, so with one shard this is the
    /// identity traversal.
    fn for_each_merged(&self, mut f: impl FnMut(&JournalRecord)) {
        let mut cur: Vec<usize> = self.folded.clone();
        let mut heap: BinaryHeap<Reverse<(Time, usize)>> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(s, ctl)| {
                ctl.journal()
                    .get(cur[s])
                    .map(|rec| Reverse((rec.submitted_at, s)))
            })
            .collect();
        while let Some(Reverse((_, s))) = heap.pop() {
            f(&self.shards[s].journal()[cur[s]]);
            cur[s] += 1;
            if let Some(rec) = self.shards[s].journal().get(cur[s]) {
                heap.push(Reverse((rec.submitted_at, s)));
            }
        }
    }

    /// Streams the merge keys `(submitted_at, shard)` of the live
    /// journal in merged order, without exposing the record type or
    /// materializing the merged list. This is the public face of the
    /// private heap-merge traversal: `tests/merge_streaming.rs`
    /// drives it under a counting allocator to pin the O(shards)
    /// allocation bound (the crate itself forbids the `unsafe` a
    /// counting `GlobalAlloc` needs).
    pub fn for_each_merged_key(&self, mut f: impl FnMut(Time, usize)) {
        self.for_each_merged(|rec| f(rec.submitted_at, rec.shard));
    }

    /// The merged journal as one owned, globally-ordered record list —
    /// what the model checker enumerates over.
    pub(crate) fn merged_journal(&self) -> Vec<JournalRecord> {
        let mut out = Vec::with_capacity(self.shards.iter().map(|c| c.journal_len()).sum());
        self.for_each_merged(|rec| out.push(rec.clone()));
        out
    }

    /// Builds the NVMM image as ADR would leave it for a crash at
    /// `crash_time` (`None` = run to completion), replaying the merged
    /// journal over the compaction base.
    ///
    /// # Panics
    ///
    /// Panics when a crash time is given after compaction has folded
    /// records away: the folded prefix can no longer be filtered by
    /// guarantee instant.
    pub fn build_image(&self, crash_time: Option<Time>) -> NvmmImage {
        assert!(
            crash_time.is_none() || self.compacted == 0,
            "crash-time image unavailable after journal compaction"
        );
        let mut img = self.base.clone();
        self.for_each_merged(|rec| {
            if let Some(t) = crash_time {
                if rec.guaranteed_at > t {
                    return;
                }
            }
            rec.op.apply(&mut img);
        });
        img
    }

    /// The full crash state at `crash_time` for the model checker, over
    /// the merged journal (serialization domains are `(shard, domain)`
    /// pairs — see [`crate::crashmc`]).
    ///
    /// # Panics
    ///
    /// Panics after journal compaction: a folded record's in-flight
    /// window is gone, so enumeration would be unsound.
    pub fn crash_set(&self, crash_time: Time) -> CrashSet {
        assert!(
            self.compacted == 0,
            "crash analysis unavailable after journal compaction"
        );
        CrashSet::from_journal(&self.merged_journal(), crash_time)
    }

    /// Persist windows of every live journaled write whose guarantee
    /// arrived strictly after submission, in merged order. After
    /// compaction this covers only the un-folded tail.
    pub fn persist_windows(&self) -> Vec<(Time, Time)> {
        let mut out = Vec::new();
        self.for_each_merged(|rec| {
            if rec.guaranteed_at > rec.submitted_at {
                out.push((rec.submitted_at, rec.guaranteed_at));
            }
        });
        out
    }

    /// Folds into the base image every journal record submitted
    /// *strictly before* `watermark` and drops it from its shard's
    /// journal. The caller must guarantee that no future record will be
    /// submitted before `watermark` (the replay engine passes the
    /// minimum live-core clock): the strict inequality then makes the
    /// folded records a stable prefix of the final merged order, so the
    /// completion image is unchanged.
    pub(crate) fn compact_through(&mut self, watermark: Time) {
        let mut heap: BinaryHeap<Reverse<(Time, usize)>> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(s, ctl)| {
                ctl.journal()
                    .get(self.folded[s])
                    .map(|rec| Reverse((rec.submitted_at, s)))
            })
            .collect();
        while let Some(&Reverse((at, s))) = heap.peek() {
            if at >= watermark {
                break;
            }
            heap.pop();
            self.shards[s].journal()[self.folded[s]]
                .op
                .apply(&mut self.base);
            self.folded[s] += 1;
            self.compacted += 1;
            if let Some(rec) = self.shards[s].journal().get(self.folded[s]) {
                heap.push(Reverse((rec.submitted_at, s)));
            }
        }
        for (s, folded) in self.folded.iter_mut().enumerate() {
            if *folded > 0 {
                self.shards[s].drain_journal_prefix(*folded);
                *folded = 0;
            }
        }
    }

    /// Parity probe for the single-shard configuration: `Some(true)`
    /// when the merged-journal image and persist windows are identical
    /// to shard 0's pre-refactor direct paths. `None` when the check
    /// does not apply (several shards, or compaction dropped records).
    pub fn merged_matches_single(&self) -> Option<bool> {
        if self.shards.len() != 1 || self.compacted != 0 {
            return None;
        }
        let direct = self.shards[0].build_image(None);
        let merged = self.build_image(None);
        Some(
            direct.fingerprint() == merged.fingerprint()
                && self.shards[0].persist_windows() == self.persist_windows(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm_crypto::LineData;

    fn cfg(shards: usize) -> SimConfig {
        SimConfig::single_core(Design::Sca).with_shards(shards)
    }

    fn data(i: u64) -> LineData {
        [i as u8; 64]
    }

    #[test]
    fn single_shard_matches_direct_controller_paths() {
        let cfg1 = cfg(1);
        let mut sharded = ShardedController::new(&cfg1);
        let mut direct = MemoryController::new(&cfg1);
        let mut s1 = Stats::new(1);
        let mut s2 = Stats::new(1);
        let mut t = Time::from_ns(10);
        for i in 0..40u64 {
            let line = LineAddr(i * 5);
            let a = sharded.writeback(line, data(i), i % 2 == 0, t, &mut s1);
            let b = direct.writeback(line, data(i), i % 2 == 0, t, &mut s2);
            assert_eq!(a, b, "guarantee instants must match at shards=1");
            t += Time::from_ns(17);
        }
        assert_eq!(s1, s2, "stats must match at shards=1");
        assert_eq!(
            sharded.build_image(None).fingerprint(),
            direct.build_image(None).fingerprint()
        );
        assert_eq!(sharded.persist_windows(), direct.persist_windows());
        assert_eq!(sharded.merged_matches_single(), Some(true));
    }

    #[test]
    fn routing_follows_shard_map() {
        let cfg4 = cfg(4);
        let mut sharded = ShardedController::new(&cfg4);
        let mut stats = Stats::new(1);
        // One write per shard: lines 0, 8, 16, 24 round-robin by
        // counter-line group.
        for g in 0..4u64 {
            sharded.writeback(
                LineAddr(g * 8),
                data(g),
                false,
                Time::from_ns(5),
                &mut stats,
            );
        }
        for (s, ctl) in sharded.shards.iter().enumerate() {
            assert!(
                ctl.journal().iter().all(|r| r.shard == s),
                "shard {s} journal must carry its own id"
            );
            assert!(
                ctl.journal_len() >= 1,
                "each shard must have received its write"
            );
        }
    }

    #[test]
    fn merged_journal_is_globally_ordered_and_complete() {
        let cfg2 = cfg(2);
        let mut sharded = ShardedController::new(&cfg2);
        let mut stats = Stats::new(1);
        let mut t = Time::from_ns(3);
        for i in 0..30u64 {
            sharded.writeback(LineAddr(i * 4), data(i), i % 3 == 0, t, &mut stats);
            t += Time::from_ns(11);
        }
        let merged = sharded.merged_journal();
        assert_eq!(merged.len(), sharded.journal_len());
        for w in merged.windows(2) {
            assert!(
                (w[0].submitted_at, w[0].shard) <= (w[1].submitted_at, w[1].shard),
                "merge key must be non-decreasing"
            );
        }
        // The streaming traversal must visit the same sequence the
        // owned list materializes. (The companion allocation-count
        // assertion — the merge must stream through O(shards) state,
        // never a journal-proportional buffer — lives in
        // `tests/merge_streaming.rs`: hooking the allocator needs
        // `unsafe`, which this crate forbids.)
        let mut visited = Vec::new();
        sharded.for_each_merged(|rec| visited.push((rec.submitted_at, rec.shard)));
        let keys: Vec<_> = merged.iter().map(|r| (r.submitted_at, r.shard)).collect();
        assert_eq!(visited, keys);
    }

    #[test]
    fn compaction_preserves_completion_image() {
        let cfg2 = cfg(2);
        let mut compacted = ShardedController::new(&cfg2);
        let mut reference = ShardedController::new(&cfg2);
        let mut s1 = Stats::new(1);
        let mut s2 = Stats::new(1);
        let mut t = Time::from_ns(2);
        for i in 0..60u64 {
            let line = LineAddr(i % 24 * 3);
            compacted.writeback(line, data(i), false, t, &mut s1);
            reference.writeback(line, data(i), false, t, &mut s2);
            if i % 10 == 9 {
                compacted.compact_through(t);
            }
            t += Time::from_ns(13);
        }
        assert!(compacted.compacted_records() > 0, "compaction must fire");
        assert_eq!(compacted.journal_len(), reference.journal_len());
        assert_eq!(
            compacted.build_image(None).fingerprint(),
            reference.build_image(None).fingerprint(),
            "folding a stable prefix must not change the completion image"
        );
    }

    #[test]
    #[should_panic(expected = "crash analysis unavailable")]
    fn crash_set_rejected_after_compaction() {
        let mut sharded = ShardedController::new(&cfg(2));
        let mut stats = Stats::new(1);
        for i in 0..20u64 {
            sharded.writeback(
                LineAddr(i * 2),
                data(i),
                false,
                Time::from_ns(1 + i * 20),
                &mut stats,
            );
        }
        sharded.compact_through(Time::from_ns(1_000_000));
        let _ = sharded.crash_set(Time::from_ns(50));
    }

    #[test]
    fn cache_slices_preserve_total_capacity_exactly() {
        let set_bytes = 16u64 * 64;
        let g = CacheGeometry {
            capacity_bytes: 1024 * 1024, // 1024 sets at 16 ways
            ways: 16,
            latency: Time::from_ns(1),
        };
        assert_eq!(slice_geometry(g, 0, 1), g);
        // Exact conservation for every shard count, powers of two or
        // not: the remainder sets land on the low-index shards, slices
        // differ by at most one set, and the sum equals the unsharded
        // capacity — no "up to rounding" tolerance.
        for n in [2usize, 3, 4, 5, 6, 7, 8] {
            let slices: Vec<CacheGeometry> = (0..n).map(|s| slice_geometry(g, s, n)).collect();
            let total: u64 = slices.iter().map(|s| s.capacity_bytes).sum();
            assert_eq!(
                total, g.capacity_bytes,
                "{n} slices must sum exactly to the unsharded capacity"
            );
            let (min, max) = (
                slices.iter().map(|s| s.capacity_bytes).min().unwrap(),
                slices.iter().map(|s| s.capacity_bytes).max().unwrap(),
            );
            assert!(max - min <= set_bytes, "slices differ by at most one set");
            for s in &slices {
                assert!(s.capacity_bytes >= set_bytes, "at least one set per slice");
                assert_eq!(s.capacity_bytes % set_bytes, 0, "whole sets only");
            }
            assert!(
                slices
                    .windows(2)
                    .all(|w| w[0].capacity_bytes >= w[1].capacity_bytes),
                "remainder sets go to low-index shards"
            );
        }
        // More shards than sets: the min-one-set floor still applies.
        let tiny = CacheGeometry {
            capacity_bytes: 2 * set_bytes,
            ways: 16,
            latency: Time::from_ns(1),
        };
        for s in 0..3 {
            assert_eq!(slice_geometry(tiny, s, 3).capacity_bytes % set_bytes, 0);
            assert!(slice_geometry(tiny, s, 3).capacity_bytes >= set_bytes);
        }
    }
}
