//! Adversarial detection matrix and endurance cost per integrity
//! policy.
//!
//! The crash-consistency benches ask what a *power failure* can leave
//! behind; this bench asks what a *physical attacker* can pass off.
//! For each enabled integrity policy it snapshots one deterministic
//! rewrite workload mid-run and at completion, forges the four
//! [`nvmm_sim::attack::AttackKind`] images from that pair (wholesale
//! replay, per-line counter rollback, torn write, split replay), and
//! judges each with the policy's detection oracle against the on-chip
//! freshness reference captured from the completed image. The same
//! completion run prices the policy's *endurance* bill: the per-line
//! wear report ([`nvmm_sim::device::WearReport`]) that metadata-heavy
//! policies inflate.
//!
//! **Self-checks (exit nonzero on failure):**
//!
//! 1. The matrix equals the literature's prediction exactly:
//!    `mac-only × {replay, counter-rollback}` are the only
//!    `Undetected` cells ([`nvmm_sim::attack::expected_vulnerable`]);
//!    any other miss prints its minimized victim witness.
//! 2. Wear is conserved request-level work:
//!    `wear.total_writes == nvmm_writes() + coalesced_writes()` for
//!    every policy.
//! 3. Integrity metadata costs lifetime: strict's total wear strictly
//!    exceeds mac-only's.
//! 4. Re-running the full matrix at `NVMM_SHARDS` shards reproduces
//!    the shards=1 verdicts and wear reports bit-exactly.
//!
//! **Artifacts:** `target/experiments/BENCH_attack.json` — rows are
//! policy labels; series are `{attack} detected` and `{attack}
//! expected` (1/0) per attack class, plus the wear columns
//! `wear_distinct_lines`, `wear_total_writes`, `wear_max_line_writes`,
//! `wear_mean_line_writes_milli`, `wear_lifetime_runs`. Everything is
//! simulated-time only, so the file is byte-identical across
//! `NVMM_THREADS`/`NVMM_SHARDS` (CI `cmp`s it at 1 vs 4). Wall-clock
//! figures live in `target/experiments/BENCH_attack_timing.json`.
//!
//! **Environment knobs:**
//!
//! * `NVMM_OPS` — rewrite rounds × lines budget (default 400).
//! * `NVMM_ATTACK_VICTIMS` — max lines each forgery tampers with
//!   (default 4).
//! * `NVMM_ATTACK_FRAC_MILLI` — stale-snapshot instant in thousandths
//!   of the runtime (default 500).
//! * `NVMM_ENDURANCE` — per-cell write endurance for the lifetime
//!   estimate (default 100_000_000).
//! * `NVMM_SHARDS` — shard count for the cross-check re-run
//!   (default 4; stdout only, never the artifact).

use nvmm_bench::{print_table, Experiment};
use nvmm_sim::attack::{expected_vulnerable, run_detection_row, AttackKind, MatrixCell};
use nvmm_sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm_sim::integrity::IntegritySpec;
use nvmm_sim::parallel::env_knob;
use nvmm_sim::system::RunOutcome;
use nvmm_sim::trace::{Trace, TraceEvent};
use nvmm_sim::LineAddr;
use std::time::Instant;

const POLICIES: [IntegrityPolicy; 6] = [
    IntegrityPolicy::MacOnly,
    IntegrityPolicy::Lazy,
    IntegrityPolicy::Strict,
    IntegrityPolicy::Pipelined,
    IntegrityPolicy::Phoenix,
    IntegrityPolicy::Colocated,
];

/// `rounds` counter-atomic rewrites over `lines` distinct data lines,
/// spread across counter lines, each round writing distinct content —
/// the rewindable history every replay-class attack needs.
fn rewrite_trace(lines: u64, rounds: u64) -> Trace {
    let mut t = Trace::new();
    for round in 0..rounds {
        for i in 0..lines {
            let line = LineAddr(i * 3);
            t.push(TraceEvent::Write {
                line,
                data: [(1 + round * lines + i) as u8; 64],
                counter_atomic: true,
            });
            t.push(TraceEvent::Clwb { line });
            t.push(TraceEvent::PersistBarrier);
        }
    }
    t
}

fn attack_cfg(policy: IntegrityPolicy, shards: usize, victims: u64, endurance: u64) -> SimConfig {
    let mut cfg = SimConfig::single_core(Design::Sca)
        .with_integrity(policy)
        .with_shards(shards)
        .with_attack_victims(victims)
        .with_cell_endurance(endurance);
    // Summaries on every counter pair, so the phoenix freshness
    // register always has a persisted sequence to regress from.
    cfg.phoenix_epoch_every = 1;
    cfg
}

/// One attack's verdict bit, in row order.
type VerdictBits = Vec<(AttackKind, bool)>;

fn verdict_bits(row: &[MatrixCell]) -> VerdictBits {
    row.iter()
        .map(|c| (c.attack, c.verdict.detected()))
        .collect()
}

fn main() {
    let ops = env_knob::<u64>("NVMM_OPS").unwrap_or(400);
    let victims = env_knob::<u64>("NVMM_ATTACK_VICTIMS").unwrap_or(4);
    let frac_milli = env_knob::<u64>("NVMM_ATTACK_FRAC_MILLI")
        .unwrap_or(500)
        .clamp(1, 999);
    let endurance = env_knob::<u64>("NVMM_ENDURANCE")
        .unwrap_or(100_000_000)
        .max(1);
    let shards = (env_knob::<u64>("NVMM_SHARDS").unwrap_or(4) as usize).max(1);
    let mut failed = false;

    // Budget `ops` across a fixed 8-line footprint: enough rounds that
    // the mid-run snapshot always has rewritten lines to rewind.
    let lines = 8u64;
    let rounds = (ops / lines).max(2);
    let traces = vec![rewrite_trace(lines, rounds)];
    println!(
        "workload: {rounds} rewrite rounds over {lines} lines, snapshot at {frac_milli}/1000, \
         <= {victims} victims per forgery"
    );

    let mut exp = Experiment::new(
        "BENCH_attack",
        "attack detection matrix (1 = detected) and per-policy wear/endurance report",
    );
    let mut timing = Experiment::new(
        "BENCH_attack_timing",
        "wall-clock figures for fig_attack (nondeterministic / env-dependent)",
    );
    let mut table = Vec::new();
    let mut wear_total = Vec::new();
    let mut baseline: Vec<(IntegrityPolicy, VerdictBits, RunOutcome)> = Vec::new();

    for policy in POLICIES {
        let cfg = attack_cfg(policy, 1, victims, endurance);
        let spec = IntegritySpec::from_config(&cfg);
        let started = Instant::now();
        let (row, outcome) = run_detection_row(&cfg, &traces, frac_milli);
        timing.insert(
            policy.label(),
            "wall_ns",
            started.elapsed().as_nanos() as f64,
        );

        // ---- Self-check 1: the matrix matches the prediction. ----
        for cell in &row {
            let expected = expected_vulnerable(spec, cell.attack);
            exp.insert(
                policy.label(),
                &format!("{} detected", cell.attack),
                if cell.verdict.detected() { 1.0 } else { 0.0 },
            );
            exp.insert(
                policy.label(),
                &format!("{} expected", cell.attack),
                if expected { 0.0 } else { 1.0 },
            );
            if expected && cell.verdict.detected() {
                eprintln!(
                    "FAIL: {policy} × {} was expected vulnerable but the oracle fired: {:?}",
                    cell.attack, cell.verdict
                );
                failed = true;
            }
            if !expected && !cell.verdict.detected() {
                eprintln!(
                    "FAIL: UNDETECTED {policy} × {}; minimized witness victims: {:?}",
                    cell.attack, cell.victims
                );
                failed = true;
            }
        }

        // ---- Self-check 2: wear is conserved request-level work. ----
        let wear = &outcome.wear;
        let requests = outcome.stats.nvmm_writes() + outcome.stats.coalesced_writes();
        if wear.total_writes != requests {
            eprintln!(
                "FAIL: {policy} wear total {} != {} write requests",
                wear.total_writes, requests
            );
            failed = true;
        }
        exp.insert(
            policy.label(),
            "wear_distinct_lines",
            wear.distinct_lines as f64,
        );
        exp.insert(
            policy.label(),
            "wear_total_writes",
            wear.total_writes as f64,
        );
        exp.insert(
            policy.label(),
            "wear_max_line_writes",
            wear.max_line_writes as f64,
        );
        exp.insert(
            policy.label(),
            "wear_mean_line_writes_milli",
            wear.mean_line_writes_milli as f64,
        );
        exp.insert(
            policy.label(),
            "wear_lifetime_runs",
            wear.lifetime_runs as f64,
        );

        let detected = row.iter().filter(|c| c.verdict.detected()).count();
        table.push((
            policy.label().to_string(),
            vec![
                detected as f64,
                (row.len() - detected) as f64,
                wear.total_writes as f64,
                wear.max_line_writes as f64,
                wear.lifetime_runs as f64,
            ],
        ));
        wear_total.push((policy, wear.total_writes));
        baseline.push((policy, verdict_bits(&row), outcome));
    }

    print_table(
        "attack detection and wear per integrity policy (SCA, 1 core)",
        &["detected", "missed", "wear wr", "max line", "lifetimes"],
        &table,
    );

    // ---- Self-check 3: integrity metadata costs lifetime. ----
    let total_of = |p: IntegrityPolicy| {
        wear_total
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, t)| *t)
            .unwrap_or(0)
    };
    let (mac, strict) = (
        total_of(IntegrityPolicy::MacOnly),
        total_of(IntegrityPolicy::Strict),
    );
    if strict > mac {
        println!(
            "endurance: strict writes {strict} lines vs mac-only {mac} \
             ({:.2}x wear for eager tree persistence)",
            strict as f64 / mac.max(1) as f64
        );
    } else {
        eprintln!("FAIL: strict wear {strict} not above mac-only {mac}");
        failed = true;
    }

    // ---- Self-check 4: the matrix and wear are shard-invariant. ----
    if shards > 1 {
        for (policy, bits, out1) in &baseline {
            let cfg = attack_cfg(*policy, shards, victims, endurance);
            let (row, out_n) = run_detection_row(&cfg, &traces, frac_milli);
            if verdict_bits(&row) != *bits {
                eprintln!("FAIL: shards={shards} changed {policy}'s detection row");
                failed = true;
            }
            if out_n.wear != out1.wear {
                eprintln!(
                    "FAIL: shards={shards} changed {policy}'s wear report: {:?} vs {:?}",
                    out_n.wear, out1.wear
                );
                failed = true;
            }
        }
        if !failed {
            println!("sharding: detection rows and wear reports identical at 1 vs {shards} shards");
        }
    }

    let path = exp.save().expect("write results");
    println!("saved {}", path.display());
    let timing_path = timing.save().expect("write timing");
    println!("saved {}", timing_path.display());
    if failed {
        std::process::exit(1);
    }
    println!(
        "fig_attack self-checks clean: matrix as predicted, wear conserved, \
         strict > mac-only wear, shard-invariant"
    );
}
