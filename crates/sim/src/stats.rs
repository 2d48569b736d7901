//! Simulation statistics.
//!
//! Everything the paper's figures report is derived from these counters:
//! runtime and throughput (Figs. 12, 13, 16, 17), NVMM write traffic
//! (Fig. 14), and counter-cache miss rates (Fig. 15).

use crate::time::Time;
use nvmm_json::{field, FromJson, FromJsonError, Json, ToJson};

/// Counters accumulated over one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Simulated end time (max over cores).
    pub runtime: Time,
    /// Per-core end times.
    pub core_runtimes: Vec<Time>,
    /// Demand reads that reached the memory controller (LLC misses).
    pub nvmm_reads: u64,
    /// Data-line writes drained (or guaranteed) to NVMM.
    pub nvmm_data_writes: u64,
    /// Counter-line writes drained (or guaranteed) to NVMM.
    pub nvmm_counter_writes: u64,
    /// Counter-line reads from NVMM (counter cache miss fills and
    /// write-miss background fetches).
    pub nvmm_counter_reads: u64,
    /// Total bytes written to the NVMM device, including the 8-byte
    /// counter widening in co-located designs.
    pub bytes_written: u64,
    /// Counter cache hits (read + write path probes).
    pub counter_cache_hits: u64,
    /// Counter cache misses.
    pub counter_cache_misses: u64,
    /// L1 hits / misses (demand accesses).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Cumulative core time spent waiting in `persist_barrier`.
    pub barrier_stall: Time,
    /// Cumulative core time spent waiting for write-queue space.
    pub queue_full_stall: Time,
    /// Writes that were annotated (and enforced as) counter-atomic.
    pub counter_atomic_writes: u64,
    /// Writes that were not counter-atomic.
    pub plain_writes: u64,
    /// Counter-atomic pairs whose submission waited on the serialized
    /// pairing coordinator (the ready-bit handshake of Fig. 7a).
    pub pairing_stalls: u64,
    /// Cumulative time counter-atomic pairs spent queued on the pairing
    /// coordinator before their handshake began.
    pub pairing_stall: Time,
    /// Write-queue entries merged into an existing same-line entry.
    pub coalesced_data_writes: u64,
    /// Counter write-queue entries merged into an existing same-line
    /// entry.
    pub coalesced_counter_writes: u64,
    /// Transactions committed (workload-level; populated by the runtime).
    pub transactions_committed: u64,
    /// `counter_cache_writeback` operations executed.
    pub counter_cache_writebacks: u64,
    /// Distinct NVMM targets (data or counter lines) ever written —
    /// wear-leveling footprint (§6.3.3).
    pub distinct_lines_written: u64,
    /// Maximum writes absorbed by any single NVMM target — the wear
    /// hot spot a leveling scheme must spread.
    pub max_line_writes: u64,
    /// Dirty counter-cache victims written back on eviction (as opposed
    /// to explicit `counter_cache_writeback` flushes).
    pub counter_cache_evictions: u64,
    /// Integrity-metadata cache hits (MAC lines + tree nodes).
    pub tree_cache_hits: u64,
    /// Integrity-metadata cache misses.
    pub tree_cache_misses: u64,
    /// Dirty integrity-metadata victims persisted on eviction.
    pub tree_cache_evictions: u64,
    /// MAC-line and tree-node writes drained (or guaranteed) to NVMM.
    pub nvmm_metadata_writes: u64,
    /// Metadata write-queue entries merged into an existing same-line
    /// entry.
    pub coalesced_metadata_writes: u64,
    /// Strict-policy writes that waited on the serialized root-update
    /// engine.
    pub root_update_stalls: u64,
    /// Cumulative time strict-policy writes waited for the root-update
    /// engine.
    pub root_update_stall: Time,
    /// Pipelined-policy root updates that overlapped an earlier root
    /// update still in flight (where strict would have stalled).
    pub root_update_overlaps: u64,
    /// Packed counter+MAC metadata lines written to NVMM (colocated
    /// policy).
    pub nvmm_packed_meta_writes: u64,
    /// Packed-metadata write-queue entries merged into an existing
    /// same-line entry.
    pub coalesced_packed_meta_writes: u64,
    /// Phoenix epoch summaries persisted inside counter-atomic pairs.
    pub phoenix_epoch_writes: u64,
    /// Line-write *requests* charged to the wear tracker — one per
    /// architectural NVMM write across every region, counting writes
    /// the queues later coalesce (always equals [`Stats::nvmm_writes`]
    /// plus [`Stats::coalesced_writes`]). Counting requests rather
    /// than drains keeps wear a conserved quantity — identical across
    /// shard and thread counts — and makes the lifetime estimate
    /// conservative: a cell's endurance budget should not depend on
    /// queue-drain timing. Kept as a live counter so telemetry can
    /// expose a per-epoch wear series.
    pub wear_line_writes: u64,
}

/// Field list shared by [`Stats::absorb`] and the `ToJson`/`FromJson`
/// impls so the three cannot drift apart: every `u64` counter, with the
/// `Time`/`Vec` fields handled explicitly at each use site.
macro_rules! stats_u64_fields {
    ($m:ident) => {
        $m!(
            nvmm_reads,
            nvmm_data_writes,
            nvmm_counter_writes,
            nvmm_counter_reads,
            bytes_written,
            counter_cache_hits,
            counter_cache_misses,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            counter_atomic_writes,
            plain_writes,
            pairing_stalls,
            coalesced_data_writes,
            coalesced_counter_writes,
            transactions_committed,
            counter_cache_writebacks,
            distinct_lines_written,
            max_line_writes,
            counter_cache_evictions,
            tree_cache_hits,
            tree_cache_misses,
            tree_cache_evictions,
            nvmm_metadata_writes,
            coalesced_metadata_writes,
            root_update_stalls,
            root_update_overlaps,
            nvmm_packed_meta_writes,
            coalesced_packed_meta_writes,
            phoenix_epoch_writes,
            wear_line_writes
        );
    };
}

impl Stats {
    /// Creates a zeroed statistics block for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Self {
            core_runtimes: vec![Time::ZERO; cores],
            ..Self::default()
        }
    }

    /// Folds another accumulator into this one by summing every
    /// counter and stall-time field. Every field the memory controller
    /// touches is a monotone `+=` accumulator, so summing blocks
    /// gathered separately gives the same totals in any order.
    /// End-of-run fields the replay engine *assigns* (`runtime`,
    /// `core_runtimes`, `distinct_lines_written`, `max_line_writes`)
    /// are left untouched.
    pub fn absorb(&mut self, other: &Stats) {
        // `stats_u64_fields!` includes the two end-of-run wear fields;
        // keep this side's values so the merge only sums accumulators.
        let (distinct, max_writes) = (self.distinct_lines_written, self.max_line_writes);
        macro_rules! add_u64 {
            ($($name:ident),*) => { $( self.$name += other.$name; )* };
        }
        stats_u64_fields!(add_u64);
        self.distinct_lines_written = distinct;
        self.max_line_writes = max_writes;
        self.barrier_stall += other.barrier_stall;
        self.queue_full_stall += other.queue_full_stall;
        self.pairing_stall += other.pairing_stall;
        self.root_update_stall += other.root_update_stall;
    }

    /// Counter cache miss rate over all probes, or 0.0 if never probed.
    pub fn counter_cache_miss_rate(&self) -> f64 {
        let total = self.counter_cache_hits + self.counter_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.counter_cache_misses as f64 / total as f64
        }
    }

    /// Total NVMM write accesses (data + counter + integrity metadata,
    /// split or packed).
    pub fn nvmm_writes(&self) -> u64 {
        self.nvmm_data_writes
            + self.nvmm_counter_writes
            + self.nvmm_metadata_writes
            + self.nvmm_packed_meta_writes
    }

    /// Write-queue entries that merged into an existing same-line
    /// entry instead of costing a fresh drain, across every region.
    /// `nvmm_writes() + coalesced_writes()` is the conserved
    /// request-level write count the wear tracker charges.
    pub fn coalesced_writes(&self) -> u64 {
        self.coalesced_data_writes
            + self.coalesced_counter_writes
            + self.coalesced_metadata_writes
            + self.coalesced_packed_meta_writes
    }

    /// Metadata write amplification: counter + MAC/tree + packed
    /// metadata writes per data write (0.0 for a run with no data
    /// writes). A packed counter+MAC line counts once — that is the
    /// colocated policy's halving.
    pub fn metadata_write_amplification(&self) -> f64 {
        if self.nvmm_data_writes == 0 {
            0.0
        } else {
            (self.nvmm_counter_writes + self.nvmm_metadata_writes + self.nvmm_packed_meta_writes)
                as f64
                / self.nvmm_data_writes as f64
        }
    }

    /// Mean array writes per distinct written line in thousandths
    /// (milli-writes), or 0 for a run with no writes — the flip side of
    /// `max_line_writes` for wear-leveling headroom.
    pub fn mean_line_writes_milli(&self) -> u64 {
        self.wear_line_writes
            .saturating_mul(1000)
            .checked_div(self.distinct_lines_written)
            .unwrap_or(0)
    }

    /// Transactions per simulated second; 0.0 for a zero-length run.
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.runtime.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.transactions_committed as f64 / secs
        }
    }
}

/// A log-linear latency histogram for open-loop tail-latency reporting.
///
/// Values (nanoseconds) below 32 get exact buckets; above that, each
/// power-of-two range is split into 32 sub-buckets, bounding relative
/// quantile error at ~3% while keeping the structure fixed-size and
/// deterministic. `fig_service` derives p50/p95/p99/p999 from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHist {
    /// Sparse `(bucket index, count)` pairs, index-ordered.
    buckets: Vec<(u32, u64)>,
    /// Total recorded samples.
    count: u64,
    /// Largest recorded value (exact, for the p100 endpoint).
    max: u64,
}

impl LatencyHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: u64) -> u32 {
        if v < 32 {
            v as u32
        } else {
            let msb = 63 - v.leading_zeros(); // >= 5
            (msb - 4) * 32 + ((v >> (msb - 5)) & 31) as u32
        }
    }

    /// Representative (lower-bound) value of a bucket, inverse of
    /// [`LatencyHist::bucket_of`].
    fn bucket_floor(b: u32) -> u64 {
        if b < 32 {
            b as u64
        } else {
            let msb = b / 32 + 4;
            let sub = (b % 32) as u64;
            (1u64 << msb) | (sub << (msb - 5))
        }
    }

    /// Records one latency sample (nanoseconds).
    pub fn record(&mut self, v: u64) {
        let b = Self::bucket_of(v);
        match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (b, 1)),
        }
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The latency (ns) at quantile `q` in `[0, 1]`: the smallest
    /// bucket floor such that at least `ceil(q * count)` samples fall
    /// at or below it. Returns 0 for an empty histogram; `q >= 1`
    /// returns the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(b, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Self::bucket_floor(b);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (for multi-core runs).
    pub fn merge(&mut self, other: &LatencyHist) {
        for &(b, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (b, n)),
            }
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

impl ToJson for LatencyHist {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "buckets".to_string(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(b, n)| Json::Arr(vec![(b as u64).to_json(), n.to_json()]))
                        .collect(),
                ),
            ),
            ("count".to_string(), self.count.to_json()),
            ("max".to_string(), self.max.to_json()),
        ])
    }
}

impl FromJson for LatencyHist {
    fn from_json(json: &Json) -> Result<Self, FromJsonError> {
        let pairs: Vec<Vec<u64>> = field(json, "buckets")?;
        let mut buckets = Vec::with_capacity(pairs.len());
        for p in pairs {
            if p.len() != 2 {
                return Err(FromJsonError("bucket pair must have 2 elements".into()));
            }
            buckets.push((p[0] as u32, p[1]));
        }
        Ok(Self {
            buckets,
            count: field(json, "count")?,
            max: field(json, "max")?,
        })
    }
}

impl ToJson for Stats {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("runtime".to_string(), self.runtime.to_json()),
            ("core_runtimes".to_string(), self.core_runtimes.to_json()),
            ("barrier_stall".to_string(), self.barrier_stall.to_json()),
            (
                "queue_full_stall".to_string(),
                self.queue_full_stall.to_json(),
            ),
            ("pairing_stall".to_string(), self.pairing_stall.to_json()),
            (
                "root_update_stall".to_string(),
                self.root_update_stall.to_json(),
            ),
        ];
        macro_rules! push_u64 {
            ($($name:ident),*) => {
                $( members.push((stringify!($name).to_string(), self.$name.to_json())); )*
            };
        }
        stats_u64_fields!(push_u64);
        Json::Obj(members)
    }
}

impl FromJson for Stats {
    fn from_json(json: &Json) -> Result<Self, FromJsonError> {
        let mut stats = Stats {
            runtime: field(json, "runtime")?,
            core_runtimes: field(json, "core_runtimes")?,
            barrier_stall: field(json, "barrier_stall")?,
            queue_full_stall: field(json, "queue_full_stall")?,
            pairing_stall: field(json, "pairing_stall")?,
            root_update_stall: field(json, "root_update_stall")?,
            ..Stats::default()
        };
        macro_rules! read_u64 {
            ($($name:ident),*) => {
                $( stats.$name = field(json, stringify!($name))?; )*
            };
        }
        stats_u64_fields!(read_u64);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_zero() {
        assert_eq!(Stats::default().counter_cache_miss_rate(), 0.0);
    }

    #[test]
    fn miss_rate_basic() {
        let s = Stats {
            counter_cache_hits: 3,
            counter_cache_misses: 1,
            ..Stats::default()
        };
        assert!((s.counter_cache_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn throughput() {
        let s = Stats {
            runtime: Time::from_ns(1_000_000), // 1 ms
            transactions_committed: 500,
            ..Stats::default()
        };
        assert!((s.throughput_tps() - 500_000.0).abs() / 500_000.0 < 1e-9);
        assert_eq!(Stats::default().throughput_tps(), 0.0);
    }

    #[test]
    fn mean_line_writes_handles_zero_and_rounds_down() {
        assert_eq!(Stats::default().mean_line_writes_milli(), 0);
        let s = Stats {
            wear_line_writes: 7,
            distinct_lines_written: 2,
            ..Stats::default()
        };
        assert_eq!(s.mean_line_writes_milli(), 3500);
    }

    #[test]
    fn new_sizes_core_vector() {
        assert_eq!(Stats::new(4).core_runtimes.len(), 4);
    }

    #[test]
    fn absorb_sums_accumulators_and_keeps_assigned_fields() {
        let mut a = Stats {
            nvmm_data_writes: 3,
            pairing_stall: Time::from_ns(10),
            barrier_stall: Time::from_ns(5),
            distinct_lines_written: 7,
            max_line_writes: 9,
            runtime: Time::from_ns(100),
            core_runtimes: vec![Time::from_ns(100)],
            ..Stats::default()
        };
        let b = Stats {
            nvmm_data_writes: 4,
            bytes_written: 64,
            pairing_stall: Time::from_ns(2),
            distinct_lines_written: 99, // end-of-run field: must be ignored
            max_line_writes: 99,
            runtime: Time::from_ns(999),
            ..Stats::default()
        };
        a.absorb(&b);
        assert_eq!(a.nvmm_data_writes, 7);
        assert_eq!(a.bytes_written, 64);
        assert_eq!(a.pairing_stall, Time::from_ns(12));
        assert_eq!(a.barrier_stall, Time::from_ns(5));
        assert_eq!(
            a.distinct_lines_written, 7,
            "assigned fields keep this side"
        );
        assert_eq!(a.max_line_writes, 9);
        assert_eq!(
            a.runtime,
            Time::from_ns(100),
            "runtime is assigned, not summed"
        );
        assert_eq!(a.core_runtimes, vec![Time::from_ns(100)]);
    }

    #[test]
    fn latency_hist_buckets_are_monotone_and_invertible() {
        let mut last = 0;
        for v in (0..4096u64).chain((1 << 20)..(1 << 20) + 64) {
            let b = LatencyHist::bucket_of(v);
            assert!(b >= last, "bucket index must be monotone in value");
            last = b;
            let floor = LatencyHist::bucket_floor(b);
            assert!(floor <= v, "floor must lower-bound the bucket");
            // Relative error bound for the log-linear layout.
            assert!(
                v - floor <= (v / 32).max(1),
                "floor of {v} too coarse: {floor}"
            );
        }
    }

    #[test]
    fn latency_hist_quantiles() {
        let mut h = LatencyHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        let p50 = h.quantile(0.50);
        assert!((470..=500).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((960..=990).contains(&p99), "p99 = {p99}");
        assert_eq!(LatencyHist::new().quantile(0.5), 0);
    }

    #[test]
    fn latency_hist_merge_matches_combined_recording() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut both = LatencyHist::new();
        for v in 0..500u64 {
            let x = v * 37 % 8192;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn latency_hist_json_roundtrip() {
        let mut h = LatencyHist::new();
        for v in [0u64, 1, 31, 32, 1000, 123_456_789] {
            h.record(v);
        }
        let back =
            LatencyHist::from_json(&Json::parse(&h.to_json().to_compact()).unwrap()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let s = Stats {
            runtime: Time::from_ns(123),
            core_runtimes: vec![Time::from_ns(120), Time::from_ns(123)],
            nvmm_reads: 1,
            nvmm_data_writes: 2,
            nvmm_counter_writes: 3,
            nvmm_counter_reads: 4,
            bytes_written: 5,
            counter_cache_hits: 6,
            counter_cache_misses: 7,
            l1_hits: 8,
            l1_misses: 9,
            l2_hits: 10,
            l2_misses: 11,
            barrier_stall: Time::from_ns(12),
            queue_full_stall: Time::from_ns(13),
            counter_atomic_writes: 14,
            plain_writes: 15,
            pairing_stalls: 16,
            pairing_stall: Time::from_ns(17),
            coalesced_data_writes: 18,
            coalesced_counter_writes: 19,
            transactions_committed: 20,
            counter_cache_writebacks: 21,
            distinct_lines_written: 22,
            max_line_writes: 23,
            counter_cache_evictions: 24,
            tree_cache_hits: 25,
            tree_cache_misses: 26,
            tree_cache_evictions: 27,
            nvmm_metadata_writes: 28,
            coalesced_metadata_writes: 29,
            root_update_stalls: 30,
            root_update_stall: Time::from_ns(31),
            root_update_overlaps: 32,
            nvmm_packed_meta_writes: 33,
            coalesced_packed_meta_writes: 34,
            phoenix_epoch_writes: 35,
            wear_line_writes: 36,
        };
        let back = Stats::from_json(&Json::parse(&s.to_json().to_compact()).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
