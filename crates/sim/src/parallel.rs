//! The scoped-thread fan-out shared by every parallel loop in the
//! workspace.
//!
//! [`run_parallel`] is the pattern the bench sweep engine established:
//! independent jobs are pulled off an atomic cursor by up to `threads`
//! scoped workers and the results are reassembled **by job index**, so
//! the output vector is bit-identical whatever the thread count or
//! completion order. The crash model checker reuses it for its two
//! outer loops — crash instants within one model check, and sampled
//! masks within one [`crate::crashmc::CrashSet`] — and the bench sweep
//! engine delegates to it for trace generation and simulation fan-out.
//!
//! [`mc_threads`] is the model checker's thread-count knob:
//! `NVMM_MC_THREADS`, defaulting to `NVMM_THREADS`, defaulting to the
//! machine's available parallelism. Keeping it separate from
//! `NVMM_THREADS` lets CI pin the checker while the sweep engine stays
//! wide (and vice versa).
//!
//! [`env_knob`] is the one parser every `NVMM_*` environment knob goes
//! through: unset means "use the default", and a malformed value stops
//! the run instead of silently running with the default.

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Distributes `jobs` over up to `threads` scoped workers, returning
/// results in job order. A single thread (or a single job) runs inline
/// on the calling thread, in order — the parallel and sequential paths
/// produce identical output by construction.
pub fn run_parallel<T: Sync, R: Send>(
    threads: usize,
    jobs: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let result = f(job);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed")
        })
        .collect()
}

/// Reads the environment knob `name` as a `T`: `None` when it is unset,
/// the parsed value when it is well formed. A malformed value is never
/// silently replaced by the default: the process prints
/// `NVMM_X=<value>: expected <type>` and exits with status 2.
pub fn env_knob<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref()).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// The pure core of [`env_knob`]: parses the raw value of knob `name`
/// (`None` = unset), or returns the error message a malformed value
/// earns.
fn parse_knob<T: FromStr>(name: &str, raw: Option<&str>) -> Result<Option<T>, String> {
    raw.map(|v| {
        v.parse()
            .map_err(|_| format!("{name}={v}: expected {}", std::any::type_name::<T>()))
    })
    .transpose()
}

/// The model checker's worker count: `NVMM_MC_THREADS` if set, else
/// `NVMM_THREADS`, else the machine's available parallelism. Clamped to
/// at least 1.
pub fn mc_threads() -> usize {
    env_knob::<usize>("NVMM_MC_THREADS")
        .or_else(|| env_knob("NVMM_THREADS"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_job_order_any_thread_count() {
        let jobs: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for threads in [1, 2, 4, 16, 64] {
            assert_eq!(run_parallel(threads, &jobs, |j| j * j), expect);
        }
    }

    #[test]
    fn empty_and_single_job_run_inline() {
        let none: Vec<u64> = Vec::new();
        assert!(run_parallel(8, &none, |j| *j).is_empty());
        assert_eq!(run_parallel(8, &[5u64], |j| j + 1), vec![6]);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(run_parallel(32, &[1u64, 2], |j| *j), vec![1, 2]);
    }

    #[test]
    fn malformed_knob_is_rejected() {
        assert_eq!(
            parse_knob::<usize>("NVMM_MC_THREADS", Some("four")),
            Err("NVMM_MC_THREADS=four: expected usize".to_string())
        );
        assert_eq!(
            parse_knob::<usize>("NVMM_MC_THREADS", Some("2")),
            Ok(Some(2))
        );
        assert_eq!(parse_knob::<usize>("NVMM_MC_THREADS", None), Ok(None));
    }
}
