//! Integration tests for channel-sharded controllers
//! (`nvmm_sim::shard::ShardedController` behind the
//! `nvmm_sim::addr::ShardMap` interleave).
//!
//! The sharding refactor's contract has three parts, each pinned here:
//!
//! 1. The address interleave is a *bijection* — every global line maps
//!    to exactly one (shard, local line) and back, for any shard count
//!    (property test).
//! 2. Sharding changes *timing*, never *work*: conserved counters
//!    (transactions, line writebacks by kind) and the per-epoch
//!    telemetry totals reconcile exactly with the shards=1 baseline.
//! 3. Crash consistency survives sharding: the model checker still
//!    proves FCA/SCA clean over every ADR-legal image of a sharded
//!    run, and still *catches* an injected counter-writeback bug —
//!    the merged per-shard journal hides nothing from `crashmc`.
//!
//! Alongside, sharded replays fanned out over the shared worker pool
//! must match the same replays run one after another.

use nvmm::sim::addr::{LineAddr, ShardMap};
use nvmm::sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm::sim::parallel::run_parallel;
use nvmm::sim::system::{CrashSpec, RunOutcome, System};
use nvmm::sim::Time;
use nvmm::workloads::{
    crash_instants_cfg, model_check_cfg, traces_for_cores, ModelCheckOpts, WorkloadKind,
    WorkloadSpec,
};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `locate` ∘ `globalize` and `globalize` ∘ `locate` are identities,
    /// and distinct global lines never collide on (shard, local) — the
    /// interleave is a bijection for every shard count.
    #[test]
    fn shard_map_is_a_bijection(
        lines in proptest::collection::vec(0u64..1_000_000, 1..200),
        shards in 1usize..8,
    ) {
        let map = ShardMap::new(shards);
        let lines: HashSet<u64> = lines.into_iter().collect();
        let mut seen: HashSet<(usize, u64)> = HashSet::new();
        for &l in &lines {
            let (shard, local) = map.locate(LineAddr(l));
            prop_assert!(shard < shards, "shard index out of range");
            prop_assert_eq!(shard, map.shard_of(LineAddr(l)), "locate/shard_of must agree");
            prop_assert_eq!(map.globalize(shard, local), LineAddr(l), "round trip");
            prop_assert!(
                seen.insert((shard, local.0)),
                "two global lines collided on shard {} local {}", shard, local.0
            );
        }
    }

    /// The reverse direction: every (shard, local) pair globalizes to a
    /// line that locates straight back to it.
    #[test]
    fn shard_map_globalize_inverts_locate(
        local in 0u64..1_000_000,
        shards in 1usize..8,
        shard in 0usize..8,
    ) {
        let map = ShardMap::new(shards);
        let shard = shard % shards;
        let global = map.globalize(shard, LineAddr(local));
        prop_assert_eq!(map.locate(global), (shard, LineAddr(local)));
    }
}

/// The conserved-work counters of a run: everything a shard count must
/// not change. Timing-dependent counters (cache hit/miss splits, queue
/// coalescing windows, stalls) legitimately shift with shard-local
/// cache slices and drain schedules and are deliberately excluded.
fn conserved(stats: &nvmm::sim::Stats) -> (u64, u64, u64) {
    (
        stats.transactions_committed,
        stats.plain_writes + stats.counter_atomic_writes,
        stats.nvmm_data_writes + stats.coalesced_data_writes,
    )
}

#[test]
fn sharded_stats_reconcile_with_single_shard_baseline() {
    let cores = 4;
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(6);
    let run = |shards: usize| {
        let cfg = SimConfig::table2(Design::Sca, cores).with_shards(shards);
        System::new(cfg, traces_for_cores(&spec, cores)).run(CrashSpec::None)
    };
    let base = run(1);
    for shards in [2, 4] {
        let out = run(shards);
        assert_eq!(
            conserved(&out.stats),
            conserved(&base.stats),
            "shards={shards} changed the work performed, not just its timing"
        );
        assert_eq!(
            out.image.fingerprint(),
            base.image.fingerprint(),
            "shards={shards} changed the final NVMM image"
        );
    }
}

#[test]
fn sharded_telemetry_reconciles_with_final_stats() {
    let cores = 4;
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(6);
    let mut cfg = SimConfig::table2(Design::Sca, cores).with_shards(4);
    cfg.telemetry_epoch = Some(Time::from_ns(500));
    let out = System::new(cfg, traces_for_cores(&spec, cores)).run(CrashSpec::None);
    let timeline = out.timeline.expect("telemetry was enabled");
    assert!(
        !timeline.epochs.is_empty(),
        "run must span at least one epoch"
    );
    // Epoch deltas are exhaustive: their totals equal the final merged
    // stats, so no shard's activity escapes the sampler.
    let total = |f: fn(&nvmm::sim::telemetry::EpochSample) -> u64| {
        timeline.epochs.iter().map(f).sum::<u64>()
    };
    assert_eq!(total(|e| e.nvmm_data_writes), out.stats.nvmm_data_writes);
    assert_eq!(
        total(|e| e.nvmm_counter_writes),
        out.stats.nvmm_counter_writes
    );
    assert_eq!(
        total(|e| e.nvmm_metadata_writes),
        out.stats.nvmm_metadata_writes
    );
    assert_eq!(total(|e| e.bytes_written), out.stats.bytes_written);
    assert_eq!(
        total(|e| e.counter_cache_hits),
        out.stats.counter_cache_hits
    );
    assert_eq!(
        total(|e| e.counter_cache_misses),
        out.stats.counter_cache_misses
    );
}

/// Wear is conserved work, not timing: the per-line write counts a
/// sharded run accumulates across its controllers must merge to
/// exactly the shards=1 report — distinct lines, totals, maximum,
/// histogram, everything.
#[test]
fn sharded_wear_reports_reconcile_with_single_shard_baseline() {
    let cores = 4;
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(6);
    let run = |shards: usize| {
        let cfg = SimConfig::table2(Design::Sca, cores).with_shards(shards);
        System::new(cfg, traces_for_cores(&spec, cores)).run(CrashSpec::None)
    };
    let base = run(1);
    assert!(base.wear.distinct_lines > 0, "workload must touch NVMM");
    assert_eq!(
        base.wear.total_writes,
        base.stats.nvmm_writes() + base.stats.coalesced_writes(),
        "wear totals must account for every NVMM write request"
    );
    assert_eq!(
        base.stats.wear_line_writes,
        base.stats.nvmm_writes() + base.stats.coalesced_writes()
    );
    for shards in [2, 4] {
        let out = run(shards);
        assert_eq!(
            out.wear, base.wear,
            "shards={shards} changed the merged wear report"
        );
    }
}

/// The time-resolved wear series is exhaustive: per-epoch
/// `wear_line_writes` deltas sum to the final merged counter, so no
/// shard's device writes escape the sampler.
#[test]
fn sharded_wear_telemetry_reconciles_with_final_stats() {
    let cores = 4;
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(6);
    let mut cfg = SimConfig::table2(Design::Sca, cores).with_shards(4);
    cfg.telemetry_epoch = Some(Time::from_ns(500));
    let out = System::new(cfg, traces_for_cores(&spec, cores)).run(CrashSpec::None);
    let timeline = out.timeline.expect("telemetry was enabled");
    let series: u64 = timeline.epochs.iter().map(|e| e.wear_line_writes).sum();
    assert_eq!(series, out.stats.wear_line_writes);
    assert_eq!(series, out.wear.total_writes);
}

fn opts(max_images: usize) -> ModelCheckOpts {
    ModelCheckOpts {
        max_images,
        ..ModelCheckOpts::default()
    }
}

/// Acceptance criterion: FCA and SCA stay provably clean when the
/// journal is merged from multiple shard domains.
#[test]
fn sharded_safe_designs_have_no_violating_images() {
    let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap).with_ops(4);
    for design in [Design::Fca, Design::Sca] {
        let cfg = SimConfig::single_core(design).with_shards(2);
        let o = opts(32);
        let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 6);
        assert!(!instants.is_empty(), "{design}: no in-flight instants");
        let mut explored_choice = false;
        for &t in &instants {
            let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o);
            explored_choice |= rep.stats.groups > 0;
            assert!(
                rep.clean(),
                "{design} at {t} with 2 shards: {} of {} images violated; minimal: {:?}",
                rep.violations,
                rep.images_checked,
                rep.minimal
            );
        }
        assert!(
            explored_choice,
            "{design}: every sharded instant was vacuous"
        );
    }
}

/// Positive control: the checker must still *find* bugs across shard
/// boundaries. Stripping counter writebacks under SCA yields violating
/// images even when counters and data drain through separate shards.
#[test]
fn sharded_checker_still_catches_missing_counter_writebacks() {
    let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap).with_ops(4);
    let o = ModelCheckOpts {
        strip_counter_writebacks: true,
        max_images: 32,
        ..ModelCheckOpts::default()
    };
    let cfg = SimConfig::single_core(Design::Sca).with_shards(2);
    let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 8);
    assert!(!instants.is_empty());
    let violations: usize = instants
        .iter()
        .map(|&t| model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o).violations)
        .sum();
    assert!(
        violations > 0,
        "injected Fig. 3(a) bug went undetected across shard domains"
    );
}

/// Field-by-field comparison of two run outcomes — everything a
/// `RunOutcome` reports, including the timeline, the wear report
/// (merged per-shard write counts), the latency histogram and the
/// size of the crash set a crashing run leaves behind.
fn assert_outcomes_identical(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: stats diverged");
    assert_eq!(
        a.image.fingerprint(),
        b.image.fingerprint(),
        "{what}: NVMM image diverged"
    );
    assert_eq!(a.crash_time, b.crash_time, "{what}: crash time diverged");
    assert_eq!(
        a.crash_set.as_ref().map(|s| s.group_count()),
        b.crash_set.as_ref().map(|s| s.group_count()),
        "{what}: crash set diverged"
    );
    assert_eq!(
        a.persist_windows, b.persist_windows,
        "{what}: persist windows (merged journal order) diverged"
    );
    assert_eq!(
        a.events_processed, b.events_processed,
        "{what}: event count diverged"
    );
    assert_eq!(a.timeline, b.timeline, "{what}: telemetry diverged");
    assert_eq!(a.latency, b.latency, "{what}: latency histogram diverged");
    assert_eq!(a.wear, b.wear, "{what}: wear report diverged");
}

/// Replays one sharded configuration several times — twice to
/// completion and at two crash instants — fanned out over `threads`
/// workers of the shared `run_parallel` pool, the way the sweep engine
/// runs simulation cells. Returns each outcome with its single-shard
/// parity verdict, in job order.
fn replay_fanned_out(
    cfg: &SimConfig,
    traces: &[nvmm::sim::trace::Trace],
    threads: usize,
) -> Vec<(RunOutcome, Option<bool>)> {
    let crashes = [
        CrashSpec::None,
        CrashSpec::None,
        CrashSpec::AtTime(Time::from_ns(600)),
        CrashSpec::AtTime(Time::from_ns(1500)),
    ];
    run_parallel(threads, &crashes, |&crash| {
        System::new(cfg.clone(), traces.to_vec()).run_with_parity_check(crash)
    })
}

/// Checks a fanned-out replay against the sequential one job by job,
/// and the two identical completion jobs against each other: a sharded
/// replay carries no state across runs or threads.
fn assert_fanned_out_replay_deterministic(cfg: &SimConfig, traces: &[nvmm::sim::trace::Trace]) {
    let base = replay_fanned_out(cfg, traces, 1);
    let par = replay_fanned_out(cfg, traces, 4);
    for (i, ((b, b_parity), (p, p_parity))) in base.iter().zip(&par).enumerate() {
        assert_eq!(p_parity, b_parity, "job {i}: parity probe diverged");
        assert_outcomes_identical(p, b, &format!("job {i} threads=4 vs threads=1"));
    }
    assert_outcomes_identical(&base[0].0, &base[1].0, "repeated completion run");
    assert!(
        base[2].0.crash_set.is_some(),
        "the 600 ns job must crash mid-run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Cross-run determinism, fuzzed: for random seeds, workloads and
    /// integrity policies, 4-shard replays run concurrently on 4 pool
    /// workers produce `RunOutcome`s identical to the same replays run
    /// one after another — stats, image, crash set, persist windows
    /// (the merged journal's in-flight order), telemetry, wear,
    /// latency — along with the same single-shard parity verdict.
    #[test]
    fn parallel_replay_is_deterministic(
        seed in 0u64..1_000_000,
        kind_ix in 0usize..3,
        ops in 3usize..7,
        policy_ix in 0usize..IntegrityPolicy::ALL.len(),
    ) {
        let kind = [WorkloadKind::HashTable, WorkloadKind::Queue, WorkloadKind::ArraySwap][kind_ix];
        let mut spec = WorkloadSpec::smoke(kind).with_ops(ops);
        spec.seed = seed;
        let cores = 2;
        let mut cfg = SimConfig::table2(Design::Sca, cores)
            .with_shards(4)
            .with_integrity(IntegrityPolicy::ALL[policy_ix]);
        cfg.telemetry_epoch = Some(Time::from_ns(700));
        assert_fanned_out_replay_deterministic(&cfg, &traces_for_cores(&spec, cores));
    }
}

/// Cross-run determinism over every integrity policy, pinned (the fuzz
/// above samples; this leaves no policy to chance): each of the six
/// non-trivial policies — and the no-integrity baseline — replays
/// bit-identically on 4 pool workers.
#[test]
fn parallel_replay_deterministic_across_all_integrity_policies() {
    let cores = 2;
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(5);
    let traces = traces_for_cores(&spec, cores);
    for policy in IntegrityPolicy::ALL {
        let mut cfg = SimConfig::table2(Design::Sca, cores)
            .with_shards(4)
            .with_integrity(policy);
        cfg.telemetry_epoch = Some(Time::from_ns(600));
        assert_fanned_out_replay_deterministic(&cfg, &traces);
    }
}

/// Batched-journal compaction folds records' in-flight windows away,
/// so combining it with crash analysis would be unsound — the driver
/// must refuse up front with a descriptive error instead of silently
/// enumerating from a truncated journal.
#[test]
#[should_panic(expected = "journal batching is completion-only")]
fn journal_batching_refuses_crash_analysis() {
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(4);
    let cfg = SimConfig::single_core(Design::Sca).with_shards(2);
    let traces = traces_for_cores(&spec, cfg.cores);
    System::new(cfg, traces)
        .with_journal_batch(8)
        .run(CrashSpec::AtTime(Time::from_ns(500)));
}

/// The completion path with the same batching knob stays valid: the
/// run finishes, and its final image (fingerprinted via the stats the
/// outcome carries) matches an unbatched reference run — compaction
/// changes journal memory, never the completion image.
#[test]
fn journal_batching_preserves_completion_outcome() {
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(4);
    let cfg = SimConfig::single_core(Design::Sca).with_shards(2);
    let traces = traces_for_cores(&spec, cfg.cores);
    let batched = System::new(cfg.clone(), traces.clone())
        .with_journal_batch(4)
        .run(CrashSpec::None);
    let reference = System::new(cfg, traces).run(CrashSpec::None);
    assert_eq!(
        batched.image.fingerprint(),
        reference.image.fingerprint(),
        "compaction must not change the completion image"
    );
    assert_eq!(batched.stats.runtime, reference.stats.runtime);
}
