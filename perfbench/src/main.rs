//! The repository benchmark: host-time rates of the simulator, the
//! crash model checker and the adversary engine, end to end and per
//! layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--revision <id>] [--spans-out <file>]
//! ```
//!
//! Each run sets its workload up several times, then repeats timed
//! passes for `--seconds` host seconds.
//! Every pass makes the same deterministic calls on the same inputs, so
//! its simulated outputs must digest identically, and a call's host time
//! varies only with interference from the shared host. The rate
//! therefore divides a pass's work by the sum, over its calls, of each
//! call's fastest time in the run, and `setup_s` likewise sums each
//! set-up step's fastest time. The medians are printed beside them.
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics, taken
//! from spans the benchmark records around each call into a layer.
//! The traced run times untraced passes too and reports the overhead.
//!
//! Worker counts are pinned: one enumeration worker for the model
//! checker and the replay sweep, and the simulator's own default of one
//! shard thread. The benchmark reads no `NVMM_*` environment variable.

mod crashmc;
mod replay;
mod service;
mod spans;

use nvmm_crypto::aes::Aes128;
use nvmm_crypto::counter::Counter;
use nvmm_crypto::mac::MacEngine;
use nvmm_crypto::otp::line_pad;
use nvmm_sim::{RunOutcome, Stats};
use spans::{median, Phase, Tracer};
use std::hint::black_box;
use std::time::Instant;

/// Fewest set-up repetitions per run.
const MIN_SETUP_REPS: u32 = 7;
/// Most set-up repetitions per run.
const MAX_SETUP_REPS: u32 = 400;
/// Share of `--seconds` that set-up repetitions aim to take, so a cheap
/// set-up is repeated often enough for its fastest steps to catch a
/// quiet moment of the host, as a pass's calls do.
const SETUP_SHARE: f64 = 0.25;
/// Fewest timed passes per run (per half of a traced run).
const MIN_PASSES: u32 = 3;
/// Enumeration workers for `enumerate_verified_timed` and
/// `replay_sweep`.
pub const MC_WORKERS: usize = 1;

/// FNV-1a over the deterministic simulated outputs of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, s: &str) {
        for b in s.bytes().chain([0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one run's stats, latency histogram and final image in.
    pub fn add_run(&mut self, label: &str, run: &RunOutcome) {
        self.add(label);
        self.add(&format!("{:?}", run.stats));
        self.add(&format!("{:?}", run.latency));
        self.add(&format!("{:x}", run.image.fingerprint()));
    }
}

/// What one timed pass did.
pub struct PassOut {
    /// Work items completed: events replayed or images judged.
    pub items: u64,
    /// Host time of each timed call, in call order. The calls of every
    /// pass are the same deterministic operations in the same order.
    pub calls: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Digest,
    /// Simulated counters summed over the pass's runs.
    pub sim: Stats,
    pub sim_runtime_ps: u64,
    /// Workload-specific simulated results (latency quantiles,
    /// accuracy rows).
    pub extra: Vec<(&'static str, f64)>,
}

impl Default for PassOut {
    fn default() -> Self {
        Self {
            items: 0,
            calls: Vec::new(),
            attempted: 0,
            failed: 0,
            digest: Digest::default(),
            sim: Stats::new(1),
            sim_runtime_ps: 0,
            extra: Vec::new(),
        }
    }
}

impl PassOut {
    pub fn call(&mut self, ns: u64) {
        self.calls.push(ns);
    }

    pub fn add_stats(&mut self, stats: &Stats) {
        self.sim.absorb(stats);
        self.sim_runtime_ps += stats.runtime.0;
    }
}

pub trait Workload: Sized {
    /// Builds the inputs from `seed`: traces, crash sets, calibration.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;
    /// One timed pass over the inputs; `check` runs the expensive
    /// output checks (the first pass only: later passes must match its
    /// digest).
    fn pass(&self, tr: &mut Tracer, check: bool) -> PassOut;
    /// Checks made once per run after the timed passes: (attempted,
    /// failed).
    fn final_check(&self) -> (u64, u64) {
        (0, 0)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    revision: String,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        revision: "unknown".to_string(),
        spans_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--revision" => args.revision = value.clone(),
            "--spans-out" => args.spans_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Median ns per call of `f` over `reps` batches of `n` calls.
fn ns_per_call(n: u64, reps: usize, mut f: impl FnMut(u64)) -> f64 {
    let mut per: Vec<f64> = (0..reps)
        .map(|r| {
            let t = Instant::now();
            for i in 0..n {
                f(r as u64 * n + i);
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&mut per)
}

/// Host cost of the crypto primitives the simulator calls per line:
/// these layers sit inside `System::run` and the verifiers, out of
/// reach of an outside-in span, so the traced run times them directly.
fn crypto_layers() -> Vec<(&'static str, f64)> {
    let key = [0x2b; 16];
    let aes = Aes128::new(&key);
    let aes_ns = ns_per_call(20_000, 5, |i| {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&i.to_le_bytes());
        black_box(aes.encrypt_block(black_box(&block)));
    });
    let pad_ns = ns_per_call(4_000, 5, |i| {
        black_box(line_pad(&aes, black_box(i), Counter(7)));
    });
    // A fresh engine per batch and a new address per call: every tag
    // misses the memo.
    let line = [0x5a; 64];
    let mut per: Vec<f64> = (0..5u64)
        .map(|r| {
            let mac = MacEngine::new(key);
            let t = Instant::now();
            for i in 0..4_000u64 {
                black_box(mac.line_mac(black_box(r << 32 | i), Counter(1), &line));
            }
            t.elapsed().as_nanos() as f64 / 4_000.0
        })
        .collect();
    let mac_ns = median(&mut per);
    let warm = MacEngine::new(key);
    warm.line_mac(64, Counter(1), &line);
    let hit_ns = ns_per_call(20_000, 5, |_| {
        black_box(warm.line_mac(black_box(64), Counter(1), &line));
    });
    vec![
        ("crypto.aes_block_ns", aes_ns),
        ("crypto.line_pad_ns", pad_ns),
        ("crypto.line_mac_ns", mac_ns),
        ("crypto.line_mac_hit_ns", hit_ns),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer the
/// workload does not exercise reads 0.
fn per_layer(
    tr: &Tracer,
    first: &PassOut,
    overhead_pct: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let s = &first.sim;
    let extra = |name: &str| {
        first
            .extra
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let masks = tr.pass_count("crashmc.masks_explored");
    let unique = tr.pass_count("crashmc.images_unique");
    let mut m: Vec<(&'static str, &'static str, f64)> = vec![
        (
            "workloads.trace_gen_ms",
            "ms",
            tr.setup_ms("workloads.trace_gen"),
        ),
        (
            "workloads.trace_events",
            "count",
            tr.setup_count("workloads.trace_gen"),
        ),
        (
            "workloads.crash_capture_ms",
            "ms",
            tr.setup_ms("workloads.crash_capture"),
        ),
        (
            "service.calibrate_ms",
            "ms",
            tr.setup_ms("service.calibrate"),
        ),
    ];
    let crypto = crypto_layers();
    m.extend(crypto.iter().map(|&(n, v)| (n, "ns", v)));
    m.extend([
        ("system.run_ms.noenc", "ms", tr.pass_ms("system.run.noenc")),
        ("system.run_ms.sca", "ms", tr.pass_ms("system.run.sca")),
        ("system.run_ms.fca", "ms", tr.pass_ms("system.run.fca")),
        (
            "system.run_ms.sca_strict",
            "ms",
            tr.pass_ms("system.run.sca_strict"),
        ),
        (
            "system.run_ms.load50",
            "ms",
            tr.pass_ms("system.run.load50"),
        ),
        (
            "system.run_ms.load90",
            "ms",
            tr.pass_ms("system.run.load90"),
        ),
        // The fused walk's span has its self-reported verify share as a
        // child, so the walk's self time is enumeration.
        ("crashmc.enumerate_ms", "ms", tr.pass_ms("crashmc.walk")),
        ("crashmc.masks_explored", "count", masks),
        ("crashmc.images_unique", "count", unique),
        (
            "crashmc.dedupe_ratio",
            "ratio",
            if masks > 0.0 { unique / masks } else { 0.0 },
        ),
        (
            "integrity.delta_verify_ms",
            "ms",
            tr.pass_ms("integrity.delta_verify"),
        ),
        ("recovery.recover_ms", "ms", tr.pass_ms("recovery.check")),
        ("recovery.images", "count", tr.pass_count("recovery.check")),
        (
            "attack.replay_sweep_ms",
            "ms",
            tr.pass_ms("attack.replay_sweep"),
        ),
        ("attack.detected", "count", tr.pass_count("attack.detected")),
        (
            "attack.images",
            "count",
            tr.pass_count("attack.replay_sweep"),
        ),
        (
            "cache.l1_hit_ratio",
            "ratio",
            ratio(s.l1_hits, s.l1_hits + s.l1_misses),
        ),
        (
            "cache.l2_hit_ratio",
            "ratio",
            ratio(s.l2_hits, s.l2_hits + s.l2_misses),
        ),
        (
            "controller.counter_cache_hit_ratio",
            "ratio",
            ratio(
                s.counter_cache_hits,
                s.counter_cache_hits + s.counter_cache_misses,
            ),
        ),
        ("controller.nvmm_writes", "count", s.nvmm_writes() as f64),
        (
            "controller.coalesced_writes",
            "count",
            s.coalesced_writes() as f64,
        ),
        (
            "controller.pairing_stalls",
            "count",
            s.pairing_stalls as f64,
        ),
        (
            "controller.queue_full_stall_ns",
            "ns",
            s.queue_full_stall.as_ns_f64(),
        ),
        (
            "controller.barrier_stall_ns",
            "ns",
            s.barrier_stall.as_ns_f64(),
        ),
        (
            "integrity.metadata_writes",
            "count",
            (s.nvmm_metadata_writes + s.nvmm_packed_meta_writes) as f64,
        ),
        (
            "integrity.tree_cache_hit_ratio",
            "ratio",
            ratio(s.tree_cache_hits, s.tree_cache_hits + s.tree_cache_misses),
        ),
        (
            "integrity.root_update_stall_ns",
            "ns",
            s.root_update_stall.as_ns_f64(),
        ),
        (
            "system.sim_runtime_ns",
            "ns",
            first.sim_runtime_ps as f64 / 1e3,
        ),
        (
            "system.tx_committed",
            "count",
            s.transactions_committed as f64,
        ),
    ]);
    for name in [
        "service.sim_p50_ns.load50",
        "service.sim_p99_ns.load50",
        "service.sim_p50_ns.load90",
        "service.sim_p99_ns.load90",
    ] {
        m.push((name, "ns", extra(name)));
    }
    for (name, unit) in [
        ("accuracy.fig12_sca", "x"),
        ("accuracy.fig12_fca", "x"),
        ("accuracy.fig12_sca_rel_err", "ratio"),
        ("accuracy.fig12_fca_rel_err", "ratio"),
    ] {
        m.push((name, unit, extra(name)));
    }
    m.push(("trace.overhead_pct", "%", overhead_pct));
    m.push(("trace.spans", "count", tr.len() as f64));
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"revision\": \"{}\", \"nproc\": {nproc}, \
         \"workers\": {{\"mc_enumeration\": {MC_WORKERS}, \"replay_sweep\": {MC_WORKERS}, \
         \"shard_threads\": \"simulator default (1)\", \"processes\": 1}}, \
         \"seconds\": {}, \"trace\": {}}}",
        args.workload,
        args.seed,
        args.revision.replace(['"', '\\'], ""),
        args.seconds,
        u8::from(args.trace),
    );
    println!("provenance {provenance}");

    // Set-up is a fixed sequence of deterministic steps (the outermost
    // timed calls). Like a pass's rate, `setup_s` sums each step's
    // fastest time over the repetitions; the median repetition is
    // printed beside it. The first repetition's cost sets how many there
    // are: enough to take SETUP_SHARE of the run, within
    // [MIN_SETUP_REPS, MAX_SETUP_REPS]. Repetition k replaces the state
    // once the passes have used k/reps of the run, so the repetitions
    // sample the whole run's host conditions, as the passes do; every
    // state is built from the same seed and yields the same passes.
    let mut tr = Tracer::new(args.trace);
    let mut setup_reps = Vec::new();
    let mut best_steps: Vec<u64> = Vec::new();
    let mut state: Option<W> = None;
    let mut set_up = |state: &mut Option<W>, tr: &mut Tracer, rep: u32| -> Result<(), String> {
        // Drop the previous state first so peak memory reflects one
        // set-up, not two.
        drop(state.take());
        tr.set_phase(Phase::Setup(rep));
        let t = Instant::now();
        *state = Some(W::setup(args.seed, tr));
        setup_reps.push(t.elapsed().as_secs_f64());
        let steps = tr.take_top_level();
        if best_steps.is_empty() {
            best_steps = steps;
        } else if steps.len() != best_steps.len() {
            return Err(format!(
                "set-up {rep} made {} steps, not {}",
                steps.len(),
                best_steps.len()
            ));
        } else {
            for (b, s) in best_steps.iter_mut().zip(steps) {
                *b = (*b).min(s);
            }
        }
        Ok(())
    };

    // A traced run spends its first half untraced, to measure tracing's
    // own overhead against the same process.
    let halves: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let budget = args.seconds / halves.len() as f64;
    // Per half: the rate over each call's fastest time, and the median
    // of the per-pass rates.
    let mut rates: Vec<(f64, f64)> = Vec::new();
    let mut first: Option<PassOut> = None;
    let (mut attempted, mut failed, mut pass, mut rep) = (0u64, 0u64, 0u32, 0u32);
    let mut setup_reps_n = MIN_SETUP_REPS;
    let mut passes_s = 0.0;
    for (h, &traced) in halves.iter().enumerate() {
        tr.set_on(traced);
        let mut best: Vec<u64> = Vec::new();
        let mut pass_rates = Vec::new();
        let half_end = budget * (h + 1) as f64;
        while pass_rates.len() < MIN_PASSES as usize || passes_s < half_end {
            while rep < setup_reps_n
                && passes_s >= args.seconds * f64::from(rep) / f64::from(setup_reps_n)
            {
                let t = Instant::now();
                set_up(&mut state, &mut tr, rep)?;
                if rep == 0 {
                    let first_s = t.elapsed().as_secs_f64().max(1e-6);
                    setup_reps_n = ((SETUP_SHARE * args.seconds / first_s).ceil() as u32)
                        .clamp(MIN_SETUP_REPS, MAX_SETUP_REPS);
                }
                rep += 1;
            }
            let current = state.as_ref().expect("set up before the first pass");
            tr.set_phase(Phase::Pass(pass));
            let t = Instant::now();
            let out = current.pass(&mut tr, first.is_none());
            passes_s += t.elapsed().as_secs_f64();
            tr.take_top_level();
            attempted += out.attempted;
            failed += out.failed;
            pass_rates.push(out.items as f64 / (out.calls.iter().sum::<u64>().max(1) as f64 / 1e9));
            if best.is_empty() {
                best.clone_from(&out.calls);
            }
            if let Some(f) = &first {
                if out.digest != f.digest || out.calls.len() != best.len() {
                    eprintln!("pass {pass}: simulated outputs differ from pass 0");
                    failed += out.attempted;
                }
            }
            for (b, &ns) in best.iter_mut().zip(&out.calls) {
                *b = (*b).min(ns);
            }
            first.get_or_insert(out);
            pass += 1;
        }
        let items = first.as_ref().expect("at least one pass").items as f64;
        let best_s = best.iter().sum::<u64>().max(1) as f64 / 1e9;
        rates.push((items / best_s, median(&mut pass_rates)));
    }
    while rep < setup_reps_n {
        set_up(&mut state, &mut tr, rep)?;
        rep += 1;
    }
    let state = state.expect("at least one set-up repetition");
    let setup_s = best_steps.iter().sum::<u64>() as f64 / 1e9;
    println!(
        "set-up over fastest steps {setup_s:.4} s, median repetition {:.4} s ({rep} repetitions)",
        median(&mut setup_reps)
    );
    let first = first.expect("at least one pass");
    let (control_attempted, control_failed) = state.final_check();
    attempted += control_attempted;
    failed += control_failed;

    println!(
        "digest {} seed {} {:016x} ({} passes)",
        args.workload, args.seed, first.digest.0, pass
    );
    for (name, v) in &first.extra {
        println!("simulated {name} = {v}");
    }
    if args.workload == "replay-mix" {
        println!(
            "accuracy: Fig. 12 geomean runtime over NoEncryption, SCA {:.4} (paper {}), FCA {:.4} (paper ~{}); \
             the model is otherwise unvalidated",
            first.extra[0].1,
            replay::PAPER_SCA,
            first.extra[1].1,
            replay::PAPER_FCA
        );
    }

    println!(
        "rate over fastest calls {:.1}/s, median pass rate {:.1}/s",
        rates[0].0, rates[0].1
    );
    let metrics = if args.trace {
        let overhead = (rates[0].0 / rates[1].0 - 1.0) * 100.0;
        per_layer(&tr, &first, overhead)
    } else {
        vec![
            ("items_per_s", "1/s", rates[0].0),
            ("setup_s", "s", setup_s),
            ("peak_rss_mib", "MiB", peak_rss_mib()?),
        ]
    };
    if let Some(path) = &args.spans_out {
        if args.trace {
            if let Some(dir) = std::path::Path::new(path).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, tr.to_json(&provenance)).map_err(|e| format!("{path}: {e}"))?;
            println!("spans written to {path}");
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "replay-mix" => run::<replay::ReplayMix>(&args),
        "crashmc" => run::<crashmc::Crashmc>(&args),
        "attack-sweep" => run::<crashmc::AttackSweep>(&args),
        "service-stream" => run::<service::ServiceStream>(&args),
        other => Err(format!(
            "--workload must be replay-mix, crashmc, attack-sweep or service-stream, got {other:?}"
        )),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
