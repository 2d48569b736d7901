//! `service-stream`: open-loop, write-only streams from generator-backed
//! `TraceStream` sources on 4 simulated cores, SCA without integrity, 4
//! channel shards and journal-batch compaction. With no reads there are
//! no L1/L2 read hits; the work is streaming ingest, the shard map, the
//! merged journal and queue pressure.
//!
//! Two fixed offered loads, 0.5x and 0.9x of the capacity a closed-loop
//! run of the same streams measures during set-up. Both sit below the
//! knee: at 0.9x, p99 does not grow with run length.

use crate::spans::Tracer;
use crate::{PassOut, Workload};
use nvmm_sim::config::{Design, SimConfig};
use nvmm_sim::system::{CrashSpec, RunOutcome, System};
use nvmm_sim::time::Time;
use nvmm_sim::trace::{TraceEvent, TraceStream};
use nvmm_sim::LineAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const CORES: usize = 4;
const SHARDS: usize = 4;
/// Transactions per core in each timed run and in the calibration run.
const TX_PER_CORE: u64 = 6_000;
const CALIBRATION_TX_PER_CORE: u64 = 2_000;
/// Core 0's stream marks the host time every this many events it hands
/// to the simulator, splitting each timed run into segments.
const SEGMENT_EVENTS: u64 = 4096;
/// Counter-atomic line writes per transaction.
const PAYLOAD_LINES: u64 = 4;
/// Lines in each core's private footprint.
const FOOTPRINT_LINES: u64 = 4096;
const JOURNAL_BATCH: u64 = 4096;
/// (span name, p50 and p99 metric names, offered load as a share of
/// capacity).
const LOADS: [(&str, &str, &str, f64); 2] = [
    (
        "system.run.load50",
        "service.sim_p50_ns.load50",
        "service.sim_p99_ns.load50",
        0.5,
    ),
    (
        "system.run.load90",
        "service.sim_p50_ns.load90",
        "service.sim_p99_ns.load90",
        0.9,
    ),
];

fn config() -> SimConfig {
    SimConfig::table2(Design::Sca, CORES).with_shards(SHARDS)
}

/// splitmix64 finalizer: the stream's line and data choices.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host instants at which core 0's stream reached each segment boundary.
type Marks = Arc<Mutex<Vec<Instant>>>;

/// One core's stream of `txs` write-only transactions, produced lazily.
/// Each transaction is: arrival gate (open loop only), `PAYLOAD_LINES`
/// counter-atomic writes each followed by its clwb, a persist barrier
/// and the commit. With `gap`, transaction `t` arrives at
/// `offset + (t + 1) * gap`, the cores' offsets staggered across one gap.
/// With `marks`, every `SEGMENT_EVENTS`-th event pushes the host time.
fn stream(
    seed: u64,
    core: usize,
    txs: u64,
    gap: Option<Time>,
    marks: Option<Marks>,
) -> TraceStream {
    let base = core as u64 * FOOTPRINT_LINES;
    let offset = gap.map_or(0, |g| g.0 * core as u64 / CORES as u64);
    let gate = u64::from(gap.is_some());
    let per_tx = gate + 2 * PAYLOAD_LINES + 2;
    let (mut tx, mut step, mut pulled) = (0u64, 0u64, 0u64);
    TraceStream::from_generator(move || {
        if tx >= txs {
            return None;
        }
        pulled += 1;
        if let Some(m) = marks.as_ref().filter(|_| pulled % SEGMENT_EVENTS == 0) {
            m.lock()
                .expect("marks are only pushed here")
                .push(Instant::now());
        }
        let arrival = gap.map_or(tx, |g| offset + (tx + 1) * g.0);
        let s = step.saturating_sub(gate);
        let ev = if step < gate {
            TraceEvent::WaitUntil { at: Time(arrival) }
        } else if s < 2 * PAYLOAD_LINES {
            let h = mix(seed ^ mix(((core as u64) << 48) ^ (tx << 8) ^ (s / 2)));
            let line = LineAddr(base + h % FOOTPRINT_LINES);
            if s % 2 == 0 {
                TraceEvent::Write {
                    line,
                    data: [(h >> 56) as u8; 64],
                    counter_atomic: true,
                }
            } else {
                TraceEvent::Clwb { line }
            }
        } else if s == 2 * PAYLOAD_LINES {
            TraceEvent::PersistBarrier
        } else {
            TraceEvent::TxCommit { id: arrival }
        };
        step += 1;
        if step == per_tx {
            step = 0;
            tx += 1;
        }
        Some(ev)
    })
}

fn system(seed: u64, txs: u64, gap: Option<Time>, marks: Option<Marks>) -> System {
    let sources = (0..CORES)
        .map(|c| stream(seed, c, txs, gap, marks.clone().filter(|_| c == 0)))
        .collect();
    System::with_sources(config(), sources).with_journal_batch(JOURNAL_BATCH)
}

pub struct ServiceStream {
    seed: u64,
    /// Per-core arrival gap at each offered load.
    gaps: Vec<Time>,
}

impl Workload for ServiceStream {
    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let (closed, _) = tr.timed(
            "service.calibrate",
            |_| system(seed, CALIBRATION_TX_PER_CORE, None, None).run(CrashSpec::None),
            |r: &RunOutcome| r.events_processed,
        );
        // Every core ran its transactions back to back, so the run's
        // length over one core's count is the per-core service time.
        let service_ps = closed.stats.runtime.0 as f64 / CALIBRATION_TX_PER_CORE as f64;
        let gaps = LOADS
            .iter()
            .map(|&(_, _, _, load)| Time((service_ps / load).round() as u64))
            .collect();
        Self { seed, gaps }
    }

    fn pass(&self, tr: &mut Tracer, _check: bool) -> PassOut {
        let mut out = PassOut::default();
        for (&(name, p50, p99, _), &gap) in LOADS.iter().zip(&self.gaps) {
            let marks = Marks::default();
            let sys = system(self.seed, TX_PER_CORE, Some(gap), Some(marks.clone()));
            let ((run, start, end), _) = tr.timed(
                name,
                |_| {
                    let start = Instant::now();
                    let run = sys.run(CrashSpec::None);
                    (run, start, Instant::now())
                },
                |r| r.0.events_processed,
            );
            out.items += run.events_processed;
            // The run's host time, split at core 0's segment marks: each
            // segment covers the same simulated work in every pass.
            let marks = marks.lock().expect("the run has finished");
            let mut from = start;
            for &at in marks.iter().filter(|&&at| at > start).chain([&end]) {
                out.call(at.duration_since(from).as_nanos() as u64);
                from = at;
            }
            out.attempted += 1;
            let committed = run.stats.transactions_committed;
            let hist = run.latency.as_ref();
            let ok = committed == CORES as u64 * TX_PER_CORE
                && hist.is_some_and(|h| h.count() == committed);
            if !ok {
                eprintln!(
                    "service-stream {name}: {committed} committed, latency samples {:?}",
                    hist.map(|h| h.count())
                );
                out.failed += 1;
            }
            if let Some(h) = hist {
                out.extra.push((p50, h.quantile(0.5) as f64));
                out.extra.push((p99, h.quantile(0.99) as f64));
            }
            out.digest.add_run(name, &run);
            out.add_stats(&run.stats);
        }
        out
    }
}
