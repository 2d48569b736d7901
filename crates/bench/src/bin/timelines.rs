//! Figs. 7 & 8: write-drain timelines under full vs selective
//! counter-atomicity.
//!
//! Runs one small queue workload under FCA, SCA and Ideal with
//! per-epoch telemetry enabled, making the paper's timeline diagrams
//! concrete: FCA chains every (data, counter) pair through the pairing
//! coordinator — visible as pairing stalls and counter-queue pressure in
//! every epoch; SCA lets prepare/mutate writes flow freely and pairs
//! only the commit-stage flag writes.

use nvmm_bench::summarize;
use nvmm_sim::config::{Design, SimConfig};
use nvmm_sim::parallel::env_knob;
use nvmm_sim::system::{CrashSpec, System};
use nvmm_sim::time::Time;
use nvmm_workloads::{traces_for_cores, WorkloadKind, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(3);
    let epoch = Time::from_ns(env_knob("NVMM_EPOCH_NS").unwrap_or(250));
    println!("== Figs. 7/8 — one queue transaction under each design ==");
    println!("(telemetry epoch: {epoch}; override with NVMM_EPOCH_NS)");
    for design in [Design::Fca, Design::Sca, Design::Ideal] {
        let traces = traces_for_cores(&spec, 1);
        let cfg = SimConfig::single_core(design).with_telemetry_epoch(epoch);
        let out = System::new(cfg, traces).run(CrashSpec::None);
        println!("\n{design}:");
        println!("  {}", summarize(&out.stats));
        println!(
            "  counter-atomic writes: {}   plain writes: {}   barrier stall: {}",
            out.stats.counter_atomic_writes, out.stats.plain_writes, out.stats.barrier_stall
        );
        let timeline = out.timeline.expect("telemetry was enabled");
        println!(
            "  {:>24} {:>8} {:>8} {:>6} {:>6} {:>7} {:>7} {:>8}",
            "epoch", "data-wr", "ctr-wr", "dq", "cq", "pair-st", "cc-hit%", "bytes"
        );
        for s in &timeline.epochs {
            println!(
                "  {:>24} {:>8} {:>8} {:>6} {:>6} {:>7} {:>7.1} {:>8}",
                format!("{}..{}", s.start, s.end),
                s.nvmm_data_writes,
                s.nvmm_counter_writes,
                s.data_queue_depth,
                s.counter_queue_depth,
                s.pairing_stalls,
                s.counter_cache_hit_rate() * 100.0,
                s.bytes_written,
            );
        }
    }
    println!("\nFCA pairs *every* write (counter-atomic == all writes) — note the");
    println!("pairing stalls and counter-queue occupancy in its epochs; SCA pairs");
    println!("only the undo-log valid-flag writes (2 per transaction), draining");
    println!("everything else with full bank parallelism (Fig. 7b / 8b).");
}
