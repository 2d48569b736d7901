//! Integration tests for the adversarial crash-image model checker
//! (`nvmm_sim::crashmc` + `nvmm_workloads::model_check`).
//!
//! The paper's claim is universal: *no* NVMM image ADR can legally
//! leave behind may fail recovery under a counter-atomic design. The
//! crash sweeps in `crash_consistency.rs` test one pessimistic image
//! per crash point; these tests enumerate the whole legal image set at
//! instants where writes are observably in flight.

use nvmm::sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm::sim::system::CrashSpec;
use nvmm::workloads::{
    crash_instants, crash_instants_cfg, execute, model_check, model_check_cfg, ModelCheckOpts,
    WorkloadKind, WorkloadSpec,
};

fn opts(max_images: usize) -> ModelCheckOpts {
    ModelCheckOpts {
        max_images,
        ..ModelCheckOpts::default()
    }
}

/// Acceptance criterion: across all five workloads under FCA and SCA,
/// every enumerated image at every in-flight crash instant recovers
/// cleanly — and the instants are non-vacuous (the enumerator really
/// had choices to explore).
#[test]
fn safe_designs_have_no_violating_images() {
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        for design in [Design::Fca, Design::Sca] {
            let o = opts(32);
            let instants = crash_instants(&spec, design, &o, 6);
            assert!(
                !instants.is_empty(),
                "{kind} under {design}: no in-flight instants found"
            );
            let mut explored_choice = false;
            for &t in &instants {
                let rep = model_check(&spec, design, CrashSpec::AtTime(t), &o);
                explored_choice |= rep.stats.groups > 0;
                assert!(
                    rep.clean(),
                    "{kind} under {design} at {t}: {} of {} images violated; minimal: {:?}",
                    rep.violations,
                    rep.images_checked,
                    rep.minimal
                );
            }
            assert!(
                explored_choice,
                "{kind} under {design}: every instant was vacuous (no choice groups)"
            );
        }
    }
}

/// Positive control for the checker itself: an SCA program that forgets
/// its `counter_cache_writeback()` calls must yield violating images —
/// the Fig. 3(a) failure, found by enumeration rather than by luck.
#[test]
fn missing_counter_writeback_yields_violating_images() {
    let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap).with_ops(4);
    let o = ModelCheckOpts {
        strip_counter_writebacks: true,
        max_images: 32,
        ..ModelCheckOpts::default()
    };
    let instants = crash_instants(&spec, Design::Sca, &o, 8);
    assert!(!instants.is_empty());
    let mut violations = 0;
    let mut minimal_seen = false;
    for &t in &instants {
        let rep = model_check(&spec, Design::Sca, CrashSpec::AtTime(t), &o);
        violations += rep.violations;
        if let Some(m) = rep.minimal {
            minimal_seen = true;
            // The data line persisted with its counter stranded on chip:
            // recovery must observe the counter/ciphertext mismatch.
            assert!(
                !m.error.0.is_empty(),
                "minimal violation must carry the oracle's error"
            );
        }
    }
    assert!(
        violations >= 1,
        "stripping every ccwb must produce at least one violating image"
    );
    assert!(
        minimal_seen,
        "violations must come with a minimized witness"
    );
}

/// The crash-unsafe baseline fails the model check somewhere: encrypted
/// writes without counter-atomicity strand counters on chip, which the
/// single-image oracle already sees at event-aligned crash points.
#[test]
fn unsafe_design_fails_model_check() {
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(4);
    let ex = execute(&spec, 0, spec.ops);
    let total = ex.pm.trace().len() as u64;
    let start = ex.setup_events as u64;
    let o = opts(32);
    let step = ((total - start) / 20).max(1);
    let mut violations = 0;
    let mut k = start;
    while k < total {
        let rep = model_check(
            &spec,
            Design::UnsafeNoAtomicity,
            CrashSpec::AfterEvent(k),
            &o,
        );
        violations += rep.violations;
        k += step;
    }
    assert!(
        violations >= 1,
        "no counter-atomicity must exhibit the Fig. 4 failure under model check"
    );
}

/// Acceptance criterion: results are bit-identical for a fixed seed and
/// bound — the whole report, not just the verdict.
#[test]
fn model_check_is_deterministic_for_fixed_seed_and_bound() {
    let spec = WorkloadSpec::smoke(WorkloadKind::BTree).with_ops(4);
    let o = opts(16);
    let instants = crash_instants(&spec, Design::Fca, &o, 3);
    assert!(!instants.is_empty());
    for &t in &instants {
        let a = model_check(&spec, Design::Fca, CrashSpec::AtTime(t), &o);
        let b = model_check(&spec, Design::Fca, CrashSpec::AtTime(t), &o);
        assert_eq!(a, b, "identical inputs must yield identical reports");
    }
    // The violating path is deterministic too (minimization included).
    let o = ModelCheckOpts {
        strip_counter_writebacks: true,
        ..opts(16)
    };
    let instants = crash_instants(&spec, Design::Sca, &o, 2);
    for &t in &instants {
        let a = model_check(&spec, Design::Sca, CrashSpec::AtTime(t), &o);
        let b = model_check(&spec, Design::Sca, CrashSpec::AtTime(t), &o);
        assert_eq!(a, b);
    }
}

/// Acceptance criterion for the integrity subsystem: across all five
/// workloads under SCA with the strict and lazy policies, every
/// enumerated image at every in-flight crash instant passes both the
/// recovery oracle *and* the integrity oracle (MAC authentication plus,
/// under strict, tree-node/child digest agreement).
#[test]
fn integrity_policies_pass_model_check_on_all_workloads() {
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        for policy in [IntegrityPolicy::Strict, IntegrityPolicy::Lazy] {
            let cfg = SimConfig::single_core(Design::Sca).with_integrity(policy);
            let o = opts(32);
            let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 6);
            assert!(
                !instants.is_empty(),
                "{kind} under {policy}: no in-flight instants found"
            );
            for &t in &instants {
                let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o);
                assert!(
                    rep.clean(),
                    "{kind} under {policy} at {t}: {} of {} images violated; minimal: {:?}",
                    rep.violations,
                    rep.images_checked,
                    rep.minimal
                );
            }
        }
    }
}

/// Differential policy conformance: every integrity policy — the three
/// original ones plus pipelined (Freij et al.), phoenix
/// (reconstruction-from-summaries), and colocated (SecPM packed
/// metadata) — model-checks clean on all five workloads under both FCA
/// and SCA. One table, thirty (policy, workload) cells per design; any
/// regression names its exact cell.
#[test]
fn every_integrity_policy_model_checks_clean_on_all_workloads() {
    let policies = [
        IntegrityPolicy::MacOnly,
        IntegrityPolicy::Lazy,
        IntegrityPolicy::Strict,
        IntegrityPolicy::Pipelined,
        IntegrityPolicy::Phoenix,
        IntegrityPolicy::Colocated,
    ];
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        for design in [Design::Fca, Design::Sca] {
            for policy in policies {
                let mut cfg = SimConfig::single_core(design).with_integrity(policy);
                // Emit an epoch summary with every pair so the short
                // smoke runs exercise phoenix's persisted claims too.
                cfg.phoenix_epoch_every = 1;
                let o = opts(24);
                let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 4);
                assert!(
                    !instants.is_empty(),
                    "{kind}/{design}/{policy}: no in-flight instants found"
                );
                for &t in &instants {
                    let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o);
                    assert!(
                        rep.clean(),
                        "{kind}/{design}/{policy} at {t}: {} of {} images violated; minimal: {:?}",
                        rep.violations,
                        rep.images_checked,
                        rep.minimal
                    );
                }
            }
        }
    }
}

/// Differential bug table: each policy's characteristic ordering bug —
/// strict persisting parents before children, pipelined dropping the
/// root dependency from its pair, phoenix journaling a stale epoch
/// summary outside the pair — must surface as violating images whose
/// minimized witness blames the right oracle, on more than one
/// workload.
#[test]
fn injected_policy_bugs_are_caught_with_blaming_witnesses() {
    struct Row {
        name: &'static str,
        cfg: SimConfig,
        blame: &'static [&'static str],
    }
    let rows = [
        Row {
            name: "strict/parent-first",
            cfg: SimConfig::single_core(Design::Sca)
                .with_integrity(IntegrityPolicy::Strict)
                .with_tree_bug(),
            blame: &["never persisted", "ahead of child"],
        },
        Row {
            name: "pipelined/dropped-dependency",
            cfg: SimConfig::single_core(Design::Sca)
                .with_integrity(IntegrityPolicy::Pipelined)
                .with_pipeline_bug(),
            blame: &["never persisted", "ahead of child"],
        },
        Row {
            name: "phoenix/stale-epoch",
            cfg: {
                let mut c = SimConfig::single_core(Design::Sca)
                    .with_integrity(IntegrityPolicy::Phoenix)
                    .with_phoenix_bug();
                c.phoenix_epoch_every = 1;
                c
            },
            blame: &["stale epoch"],
        },
    ];
    for row in &rows {
        for kind in [WorkloadKind::ArraySwap, WorkloadKind::Queue] {
            let spec = WorkloadSpec::smoke(kind).with_ops(4);
            let o = opts(32);
            let instants = crash_instants_cfg(&spec, row.cfg.clone(), &o, 8);
            assert!(!instants.is_empty(), "{}/{kind}: no instants", row.name);
            let mut violations = 0;
            let mut blamed = false;
            for &t in &instants {
                let rep = model_check_cfg(&spec, row.cfg.clone(), CrashSpec::AtTime(t), &o);
                violations += rep.violations;
                if let Some(m) = rep.minimal {
                    blamed |= row.blame.iter().any(|b| m.error.0.contains(b));
                }
            }
            assert!(
                violations >= 1,
                "{}/{kind}: the injected bug produced no violating image",
                row.name
            );
            assert!(
                blamed,
                "{}/{kind}: no witness blamed the expected oracle ({:?})",
                row.name, row.blame
            );
        }
    }
}

/// Positive control for the integrity oracle: a strict-policy
/// controller whose tree-path updates persist eagerly instead of riding
/// the counter-atomic pair (the parent-ahead-of-child ordering bug) must
/// yield violating images, and the minimized witness must carry the
/// tree oracle's error.
#[test]
fn injected_tree_ordering_bug_is_caught() {
    let spec = WorkloadSpec::smoke(WorkloadKind::ArraySwap).with_ops(4);
    let cfg = SimConfig::single_core(Design::Sca)
        .with_integrity(IntegrityPolicy::Strict)
        .with_tree_bug();
    let o = opts(32);
    let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 8);
    assert!(!instants.is_empty());
    let mut violations = 0;
    let mut tree_error_seen = false;
    for &t in &instants {
        let rep = model_check_cfg(&spec, cfg.clone(), CrashSpec::AtTime(t), &o);
        violations += rep.violations;
        if let Some(m) = rep.minimal {
            tree_error_seen |=
                m.error.0.contains("never persisted") || m.error.0.contains("ahead of child");
        }
    }
    assert!(
        violations >= 1,
        "parent-first tree persistence must produce at least one violating image"
    );
    assert!(
        tree_error_seen,
        "the witness must blame the tree ordering, not an unrelated oracle"
    );
}

/// A run that completes (or quiesces) has exactly one legal image, and
/// the report says so.
#[test]
fn completed_run_has_single_clean_image() {
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(4);
    let rep = model_check(&spec, Design::Sca, CrashSpec::None, &opts(32));
    assert!(rep.clean());
    assert_eq!(rep.images_checked, 1);
    assert!(rep.stats.exhaustive);
    assert_eq!(rep.stats.groups, 0);
}

/// Differential acceptance for the fused walk: across all five
/// workloads, at every harvested in-flight instant, the fused
/// delta-verified enumeration (sequential and multi-threaded) must
/// produce the same stats, landing masks and fingerprints as the
/// retained eager rebuild-per-mask path — with the warm shared engines
/// agreeing with per-image fresh engines on every recovery verdict.
#[test]
fn incremental_enumeration_matches_eager_on_all_workloads() {
    use nvmm::crypto::mac::MacEngine;
    use nvmm::crypto::EncryptionEngine;
    use nvmm::sim::integrity::IntegritySpec;
    use nvmm::sim::system::System;
    use nvmm::sim::EnumOpts;
    use nvmm::workloads::{check_image, check_image_with};

    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        let cfg = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
        let integrity = IntegritySpec::from_config(&cfg);
        let key = cfg.key;
        let ex = execute(&spec, 0, spec.ops);
        let trace = ex.pm.trace().clone();
        let o = opts(32);
        let instants = crash_instants_cfg(&spec, cfg.clone(), &o, 4);
        assert!(!instants.is_empty(), "{kind}: no in-flight instants");
        let engine = EncryptionEngine::new(key);
        let mac_engine = MacEngine::new(key);
        for &t in &instants {
            let Some(set) = System::new(cfg.clone(), vec![trace.clone()])
                .run(CrashSpec::AtTime(t))
                .crash_set
            else {
                continue;
            };
            let eopts = EnumOpts {
                max_images: o.max_images,
                seed: o.seed,
            };
            let eager = set.enumerate_eager(eopts);
            for threads in [1, 4] {
                let (fused, _) =
                    set.enumerate_verified(eopts, threads, integrity, &engine, &mac_engine);
                assert_eq!(
                    eager.stats, fused.stats,
                    "{kind} at {t} ({threads} threads)"
                );
                assert_eq!(
                    eager.images.len(),
                    fused.images.len(),
                    "{kind} at {t} ({threads} threads)"
                );
                for (i, ((em, ei), (fm, fi))) in
                    eager.images.iter().zip(fused.images.iter()).enumerate()
                {
                    assert_eq!(em.landed(), fm.landed(), "{kind} at {t} image {i}: mask");
                    assert_eq!(
                        ei.fingerprint(),
                        fi.fingerprint(),
                        "{kind} at {t} image {i}: fingerprint"
                    );
                    assert_eq!(
                        fi.fingerprint(),
                        fi.fingerprint_recompute(),
                        "{kind} at {t} image {i}: incremental fingerprint drifted"
                    );
                }
            }
            // Recovery verdicts: warm shared engines vs fresh per-image
            // engines must agree on every enumerated image.
            for (i, (_, img)) in eager.images.iter().enumerate() {
                let fresh = check_image(&spec, &ex, img, key, Design::Sca, integrity, 0);
                let warm = check_image_with(
                    &spec,
                    &ex,
                    img,
                    &engine,
                    &mac_engine,
                    Design::Sca,
                    integrity,
                    0,
                );
                assert_eq!(fresh, warm, "{kind} at {t} image {i}: verdicts diverge");
            }
        }
    }
}

/// The fused delta-verified walk, reached through the public harness,
/// must be observationally identical to full-pass verification of the
/// eager oracle's images: same enumeration stats, image count,
/// violation count and baseline verdict for every workload and policy
/// — and on a violating configuration the minimized witness's image
/// must fail full-pass checking with exactly the reported error. The
/// worker-count dimension comes from the CI matrix, which runs this
/// suite under `NVMM_MC_THREADS=1` and `=4`.
#[test]
fn delta_verified_harness_matches_full_pass() {
    use nvmm::crypto::mac::MacEngine;
    use nvmm::crypto::EncryptionEngine;
    use nvmm::sim::integrity::IntegritySpec;
    use nvmm::sim::system::System;
    use nvmm::sim::trace::{Trace, TraceEvent};
    use nvmm::sim::{EnumOpts, LandMask, NvmmImage};
    use nvmm::workloads::{check_crash_set, check_image_with};

    let mut saw_violation = false;
    for kind in [WorkloadKind::Queue, WorkloadKind::BTree] {
        let spec = WorkloadSpec::smoke(kind).with_ops(4);
        let ex = execute(&spec, 0, spec.ops);
        for policy in [
            IntegrityPolicy::Strict,
            IntegrityPolicy::Phoenix,
            IntegrityPolicy::Colocated,
        ] {
            let cfg = SimConfig::single_core(Design::Sca).with_integrity(policy);
            let integrity = IntegritySpec::from_config(&cfg);
            let engine = EncryptionEngine::new(cfg.key);
            let mac_engine = MacEngine::new(cfg.key);
            for strip in [false, true] {
                let o = ModelCheckOpts {
                    strip_counter_writebacks: strip,
                    ..opts(16)
                };
                let eopts = EnumOpts {
                    max_images: o.max_images,
                    seed: o.seed,
                };
                let trace: Trace = ex
                    .pm
                    .trace()
                    .events()
                    .iter()
                    .filter(|e| !(strip && matches!(e, TraceEvent::CounterCacheWriteback { .. })))
                    .cloned()
                    .collect();
                let full_check = |img: &NvmmImage| {
                    check_image_with(
                        &spec,
                        &ex,
                        img,
                        &engine,
                        &mac_engine,
                        Design::Sca,
                        integrity,
                        o.recovery_window,
                    )
                };
                for &t in &crash_instants_cfg(&spec, cfg.clone(), &o, 3) {
                    let Some(set) = System::new(cfg.clone(), vec![trace.clone()])
                        .run(CrashSpec::AtTime(t))
                        .crash_set
                    else {
                        continue;
                    };
                    let what = format!("{kind}/{policy:?} strip={strip} at {t}");
                    let rep =
                        check_crash_set(&spec, &ex, &set, cfg.key, Design::Sca, integrity, &o);
                    let eager = set.enumerate_eager(eopts);
                    let failed: Vec<bool> = eager
                        .images
                        .iter()
                        .map(|(_, img)| full_check(img).is_err())
                        .collect();
                    assert_eq!(rep.stats, eager.stats, "{what}: stats diverge");
                    assert_eq!(rep.images_checked, eager.images.len(), "{what}");
                    assert_eq!(
                        rep.violations,
                        failed.iter().filter(|&&f| f).count(),
                        "{what}: violation counts diverge"
                    );
                    assert_eq!(rep.baseline_violation, failed[0], "{what}: baseline");
                    assert_eq!(rep.minimal.is_some(), rep.violations > 0, "{what}");
                    if let Some(minimal) = &rep.minimal {
                        saw_violation = true;
                        let mut mask = LandMask::zeros(set.group_count());
                        for &g in &minimal.landed {
                            mask.set(g, true);
                        }
                        assert_eq!(
                            full_check(&set.image(&mask)),
                            Err(minimal.error.clone()),
                            "{what}: the witness image must fail with the reported error"
                        );
                    }
                }
            }
        }
    }
    assert!(saw_violation, "the stripped runs never produced a witness");
}

/// The parallel-over-instants driver returns, in instant order, exactly
/// the reports the sequential per-instant loop produces — including the
/// minimized witness on a violating configuration.
#[test]
fn model_check_instants_matches_sequential_loop() {
    let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(4);
    let o = opts(16);
    let instants = crash_instants(&spec, Design::Sca, &o, 4);
    assert!(!instants.is_empty());
    let batch = nvmm::workloads::model_check_instants(&spec, Design::Sca, &instants, &o);
    assert_eq!(batch.len(), instants.len());
    for (rep, &t) in batch.iter().zip(&instants) {
        let seq = model_check(&spec, Design::Sca, CrashSpec::AtTime(t), &o);
        assert_eq!(*rep, seq, "at {t}: batch and sequential reports diverge");
    }

    // Violating path: witnesses must agree too.
    let o = ModelCheckOpts {
        strip_counter_writebacks: true,
        ..opts(16)
    };
    let instants = crash_instants(&spec, Design::Sca, &o, 3);
    let batch = nvmm::workloads::model_check_instants(&spec, Design::Sca, &instants, &o);
    for (rep, &t) in batch.iter().zip(&instants) {
        let seq = model_check(&spec, Design::Sca, CrashSpec::AtTime(t), &o);
        assert_eq!(rep.minimal, seq.minimal, "at {t}: witnesses diverge");
        assert_eq!(*rep, seq);
    }
}
