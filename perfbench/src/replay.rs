//! `replay-mix`: closed-loop, single-core replay of the five Fig. 12
//! structures under NoEncryption, SCA, FCA and SCA with strict
//! integrity. AES/OTP, MAC, cache probes, the controller and the
//! integrity tree do most of their work here.

use crate::spans::Tracer;
use crate::{PassOut, Workload};
use nvmm_sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm_sim::integrity::IntegritySpec;
use nvmm_sim::system::{CrashSpec, System};
use nvmm_sim::trace::Trace;
use nvmm_workloads::{check_recovered_image, execute, Executed, WorkloadKind, WorkloadSpec};

/// The replayed configurations: (span name, design, integrity policy).
const CONFIGS: [(&str, Design, IntegrityPolicy); 4] = [
    (
        "system.run.noenc",
        Design::NoEncryption,
        IntegrityPolicy::None,
    ),
    ("system.run.sca", Design::Sca, IntegrityPolicy::None),
    ("system.run.fca", Design::Fca, IntegrityPolicy::None),
    (
        "system.run.sca_strict",
        Design::Sca,
        IntegrityPolicy::Strict,
    ),
];

/// The paper's Fig. 12 geomeans (runtime over NoEncryption).
pub const PAPER_SCA: f64 = 1.117;
pub const PAPER_FCA: f64 = 1.19;

struct Cell {
    spec: WorkloadSpec,
    ex: Executed,
    trace: Trace,
}

pub struct ReplayMix {
    cells: Vec<Cell>,
}

impl Workload for ReplayMix {
    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let cells = WorkloadKind::ALL
            .into_iter()
            .map(|kind| {
                // Caches start empty: every run builds a fresh System.
                let spec = WorkloadSpec::evaluation_default(kind).with_seed(seed);
                let ((ex, trace), _) = tr.timed(
                    "workloads.trace_gen",
                    |_| {
                        let ex = execute(&spec, 0, spec.ops);
                        let trace = ex.pm.trace().clone();
                        (ex, trace)
                    },
                    |(_, trace): &(Executed, Trace)| trace.len() as u64,
                );
                Cell { spec, ex, trace }
            })
            .collect();
        Self { cells }
    }

    fn pass(&self, tr: &mut Tracer, check: bool) -> PassOut {
        let mut out = PassOut::default();
        // runtime[config][cell], for the Fig. 12 accuracy rows.
        let mut runtime = [[0f64; 5]; CONFIGS.len()];
        for (ci, cell) in self.cells.iter().enumerate() {
            for (k, &(name, design, policy)) in CONFIGS.iter().enumerate() {
                let cfg = SimConfig::table2(design, 1).with_integrity(policy);
                let key = cfg.key;
                let sys = System::new(cfg.clone(), vec![cell.trace.clone()]);
                let (run, ns) =
                    tr.timed(name, |_| sys.run(CrashSpec::None), |r| r.events_processed);
                out.items += run.events_processed;
                out.call(ns);
                out.attempted += 1;
                let mut ok = run.stats.transactions_committed == cell.spec.ops as u64;
                if check {
                    let verdict = check_recovered_image(
                        &cell.spec,
                        &cell.ex,
                        &run,
                        key,
                        design,
                        IntegritySpec::from_config(&cfg),
                        0,
                    );
                    if let Err(e) = &verdict {
                        eprintln!("replay-mix: {} under {name}: {e}", cell.spec.kind);
                        ok = false;
                    }
                }
                out.failed += u64::from(!ok);
                runtime[k][ci] = run.stats.runtime.0 as f64;
                out.digest.add_run(name, &run);
                out.add_stats(&run.stats);
            }
        }
        let ratio = |k: usize| {
            let logs: f64 = (0..self.cells.len())
                .map(|c| (runtime[k][c] / runtime[0][c]).ln())
                .sum();
            (logs / self.cells.len() as f64).exp()
        };
        let (sca, fca) = (ratio(1), ratio(2));
        out.extra = vec![
            ("accuracy.fig12_sca", sca),
            ("accuracy.fig12_fca", fca),
            ("accuracy.fig12_sca_rel_err", (sca - PAPER_SCA) / PAPER_SCA),
            ("accuracy.fig12_fca_rel_err", (fca - PAPER_FCA) / PAPER_FCA),
        ];
        out
    }
}
