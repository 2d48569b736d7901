//! `crashmc` and `attack-sweep`: SCA crash sets harvested from dense
//! transactions (24 payload lines), enumerated over every ADR-legal
//! image. Overlay enumeration, `DeltaVerifier`, recovery and the
//! replay oracle do nearly all the work; AES does little because pads
//! and tags are memo hits.
//!
//! Harvesting instants and capturing the crash sets is set-up. The
//! timed phase of `crashmc` is the production fused path of
//! `check_crash_set`: `enumerate_verified_timed`, then the recovery
//! oracle on every image the integrity oracle accepted. The timed
//! phase of `attack-sweep` is `replay_sweep` against a freshness
//! anchor captured from the completed run.

use crate::spans::Tracer;
use crate::{PassOut, Workload, MC_WORKERS};
use nvmm_crypto::mac::MacEngine;
use nvmm_crypto::EncryptionEngine;
use nvmm_sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm_sim::integrity::IntegritySpec;
use nvmm_sim::system::{CrashSpec, System};
use nvmm_sim::trace::{Trace, TraceEvent};
use nvmm_sim::{expected_vulnerable, AttackKind, CrashSet, EnumOpts, FreshnessRef, Stats};
use nvmm_workloads::{
    check_image_with, crash_instants_cfg, execute, Executed, ModelCheckOpts, WorkloadKind,
    WorkloadSpec,
};

/// Transactions per structure and lines written per transaction: dense
/// transactions leave many writes in flight at each crash instant.
const OPS: usize = 16;
const PAYLOAD_LINES: usize = 24;
/// Crash instants harvested per structure and policy.
const POINTS: usize = 5;
/// Landing masks enumerated per crash set.
const MAX_IMAGES: usize = 256;

/// The three policies take different verify branches: tree links,
/// phoenix reconstruction, packed lines.
const MC_POLICIES: [IntegrityPolicy; 3] = [
    IntegrityPolicy::Strict,
    IntegrityPolicy::Phoenix,
    IntegrityPolicy::Colocated,
];
/// The positive control's policies. Strict is not one: it makes every
/// write counter-atomic, so counters land with their data and the
/// stripped write-backs are redundant there.
const CONTROL_POLICIES: [IntegrityPolicy; 2] =
    [IntegrityPolicy::Phoenix, IntegrityPolicy::Colocated];
/// mac-only has no freshness anchor, so it is the one policy whose
/// replayed images must all go undetected.
const ATTACK_POLICIES: [IntegrityPolicy; 4] = [
    IntegrityPolicy::MacOnly,
    IntegrityPolicy::Strict,
    IntegrityPolicy::Phoenix,
    IntegrityPolicy::Colocated,
];

struct Group {
    spec: WorkloadSpec,
    ex: Executed,
    cfg: SimConfig,
    sets: Vec<CrashSet>,
    /// Freshness anchor from the completed run (attack groups only).
    fresh: Option<FreshnessRef>,
    /// Simulated stats of the crash-capture runs.
    capture_stats: Vec<Stats>,
}

impl Group {
    fn integrity(&self) -> IntegritySpec {
        IntegritySpec::from_config(&self.cfg)
    }
}

/// Shared set-up state: the groups and the enumeration seed.
struct Captured {
    groups: Vec<Group>,
    seed: u64,
}

fn strip_counter_writebacks(trace: &Trace) -> Trace {
    trace
        .events()
        .iter()
        .filter(|e| !matches!(e, TraceEvent::CounterCacheWriteback { .. }))
        .cloned()
        .collect()
}

fn spec_for(kind: WorkloadKind, seed: u64) -> WorkloadSpec {
    WorkloadSpec::smoke(kind)
        .with_ops(OPS)
        .with_payload_lines(PAYLOAD_LINES)
        .with_seed(seed)
}

/// Harvests crash instants for `spec` under `cfg` and captures the
/// crash set at each (and, with `fresh`, the completed run's freshness
/// anchor). `opts` selects the positive-control trace.
fn capture_group(
    spec: WorkloadSpec,
    ex: Executed,
    cfg: SimConfig,
    opts: &ModelCheckOpts,
    fresh: bool,
) -> Group {
    let trace = if opts.strip_counter_writebacks {
        strip_counter_writebacks(ex.pm.trace())
    } else {
        ex.pm.trace().clone()
    };
    let instants = crash_instants_cfg(&spec, cfg.clone(), opts, POINTS);
    let (mut sets, mut capture_stats) = (Vec::new(), Vec::new());
    for t in instants {
        let run = System::new(cfg.clone(), vec![trace.clone()]).run(CrashSpec::AtTime(t));
        capture_stats.push(run.stats);
        sets.extend(run.crash_set);
    }
    let fresh = fresh.then(|| {
        let image = System::new(cfg.clone(), vec![trace])
            .run(CrashSpec::None)
            .image;
        FreshnessRef::capture(&image, IntegritySpec::from_config(&cfg))
    });
    Group {
        spec,
        ex,
        cfg,
        sets,
        fresh,
        capture_stats,
    }
}

fn capture(seed: u64, policies: &[IntegrityPolicy], fresh: bool, tr: &mut Tracer) -> Captured {
    let mut groups = Vec::new();
    for &policy in policies {
        for kind in WorkloadKind::ALL {
            let spec = spec_for(kind, seed);
            let (ex, _) = tr.timed(
                "workloads.trace_gen",
                |_| execute(&spec, 0, spec.ops),
                |ex: &Executed| ex.pm.trace().len() as u64,
            );
            let cfg = SimConfig::single_core(Design::Sca).with_integrity(policy);
            let (group, _) = tr.timed(
                "workloads.crash_capture",
                |_| capture_group(spec, ex, cfg, &ModelCheckOpts::default(), fresh),
                |g: &Group| g.sets.len() as u64,
            );
            groups.push(group);
        }
    }
    Captured { groups, seed }
}

impl Captured {
    fn enum_opts(&self) -> EnumOpts {
        EnumOpts {
            max_images: MAX_IMAGES,
            seed: self.seed,
        }
    }

    fn sim_into(&self, out: &mut PassOut) {
        for stats in self.groups.iter().flat_map(|g| &g.capture_stats) {
            out.add_stats(stats);
        }
    }
}

/// The fused model check of one crash set, as `check_crash_set` runs
/// it: one warm engine pair per set, the delta-verified walk, then the
/// recovery oracle on every image. Returns the violating images.
fn model_check_set(
    g: &Group,
    set: &CrashSet,
    opts: EnumOpts,
    tr: &mut Tracer,
    out: &mut PassOut,
) -> u64 {
    let key = g.cfg.key;
    let integrity = g.integrity();
    let (((en, verdicts, verify_ns), engine, mac_engine), walk_ns) = tr.timed(
        "crashmc.walk",
        |_| {
            let engine = EncryptionEngine::new(key);
            let mac_engine = MacEngine::new(key);
            let r = set.enumerate_verified_timed(opts, MC_WORKERS, integrity, &engine, &mac_engine);
            (r, engine, mac_engine)
        },
        |r| r.0 .0.images.len() as u64,
    );
    tr.reported_child("integrity.delta_verify", verify_ns, en.images.len() as u64);
    tr.count("crashmc.masks_explored", en.stats.masks_explored);
    tr.count("crashmc.images_unique", en.stats.images_unique as u64);
    // The recovery oracle runs with integrity switched off on the
    // images the fused walk accepted: like `check_crash_set`, it reuses
    // the walk's verdicts instead of re-verifying.
    let (recovered, rec_ns) = tr.timed(
        "recovery.check",
        |_| {
            en.images
                .iter()
                .zip(&verdicts)
                .map(|((_, image), verdict)| {
                    verdict.is_ok().then(|| {
                        check_image_with(
                            &g.spec,
                            &g.ex,
                            image,
                            &engine,
                            &mac_engine,
                            g.cfg.design,
                            IntegritySpec::disabled(),
                            0,
                        )
                    })
                })
                .collect()
        },
        |r: &Vec<Option<_>>| r.iter().flatten().count() as u64,
    );
    out.items += en.images.len() as u64;
    out.call(walk_ns);
    out.call(rec_ns);
    out.digest.add(&format!("{:?}", en.stats));
    let mut violations = 0;
    for (verdict, rec) in verdicts.iter().zip(&recovered) {
        out.digest.add(&format!("{verdict:?} {rec:?}"));
        violations += u64::from(verdict.is_err() || matches!(rec, Some(Err(_))));
    }
    violations
}

pub struct Crashmc(Captured);

impl Workload for Crashmc {
    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        Self(capture(seed, &MC_POLICIES, false, tr))
    }

    fn pass(&self, tr: &mut Tracer, _check: bool) -> PassOut {
        let mut out = PassOut::default();
        let opts = self.0.enum_opts();
        for g in &self.0.groups {
            for set in &g.sets {
                let before = out.items;
                let violations = model_check_set(g, set, opts, tr, &mut out);
                out.attempted += out.items - before;
                // SCA must recover every legal image under every policy.
                out.failed += violations;
                if violations > 0 {
                    eprintln!(
                        "crashmc: {violations} violating images for {} under {}",
                        g.spec.kind,
                        g.cfg.integrity.label()
                    );
                }
            }
        }
        self.0.sim_into(&mut out);
        out
    }

    /// Positive control: with its counter-cache write-backs stripped,
    /// the SCA program must yield violating images under every policy
    /// in `CONTROL_POLICIES`.
    fn final_check(&self) -> (u64, u64) {
        let opts = ModelCheckOpts {
            strip_counter_writebacks: true,
            ..ModelCheckOpts::default()
        };
        let mut scratch = PassOut::default();
        let mut quiet = Tracer::new(false);
        let mut failed = 0;
        for policy in CONTROL_POLICIES {
            let mut violations = 0;
            for kind in WorkloadKind::ALL {
                let spec = spec_for(kind, self.0.seed);
                let ex = execute(&spec, 0, spec.ops);
                let cfg = SimConfig::single_core(Design::Sca).with_integrity(policy);
                let g = capture_group(spec, ex, cfg, &opts, false);
                for set in &g.sets {
                    violations +=
                        model_check_set(&g, set, self.0.enum_opts(), &mut quiet, &mut scratch);
                }
            }
            println!(
                "positive control under {}: {violations} violating images with counter write-backs stripped",
                policy.label()
            );
            failed += u64::from(violations == 0);
        }
        (CONTROL_POLICIES.len() as u64, failed)
    }
}

pub struct AttackSweep(Captured);

impl Workload for AttackSweep {
    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        Self(capture(seed, &ATTACK_POLICIES, true, tr))
    }

    fn pass(&self, tr: &mut Tracer, _check: bool) -> PassOut {
        let mut out = PassOut::default();
        let opts = self.0.enum_opts();
        for g in &self.0.groups {
            let integrity = g.integrity();
            let fresh = g.fresh.as_ref().expect("attack groups capture an anchor");
            let vulnerable = expected_vulnerable(integrity, AttackKind::Replay);
            for set in &g.sets {
                let ((en, verdicts), ns) = tr.timed(
                    "attack.replay_sweep",
                    |_| {
                        let engine = EncryptionEngine::new(g.cfg.key);
                        let mac_engine = MacEngine::new(g.cfg.key);
                        set.replay_sweep(opts, MC_WORKERS, integrity, &engine, &mac_engine, fresh)
                    },
                    |r| r.0.images.len() as u64,
                );
                let detected = verdicts.iter().filter(|v| v.detected()).count() as u64;
                tr.count("attack.detected", detected);
                tr.count("crashmc.masks_explored", en.stats.masks_explored);
                tr.count("crashmc.images_unique", en.stats.images_unique as u64);
                out.items += verdicts.len() as u64;
                out.call(ns);
                out.attempted += verdicts.len() as u64;
                out.digest.add(&format!("{:?}", en.stats));
                for v in &verdicts {
                    out.digest.add(&format!("{v:?}"));
                    // Every anchored policy detects every replayed image;
                    // mac-only detects none.
                    if v.detected() == vulnerable {
                        out.failed += 1;
                        eprintln!(
                            "attack-sweep: {} under {}: verdict {v:?}, expected vulnerable = {vulnerable}",
                            g.spec.kind,
                            g.cfg.integrity.label()
                        );
                    }
                }
            }
        }
        self.0.sim_into(&mut out);
        out
    }
}
