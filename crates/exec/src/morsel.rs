//! Morsel-driven parallel dispatch for pure-CPU operator segments.
//!
//! The executor's I/O paths (scans, assembly, spill traffic) mutate the
//! per-run [`crate::engine::Executor`] accounting and must stay serial.
//! But three operator segments are pure functions of shared immutable
//! state — predicate filtering, root projection, and the probe phase of
//! an in-memory hash join — and those dominate CPU time on cached
//! workloads. This module splits their input rows into fixed-size
//! *morsels* — ranges over a batch, à la HyPer's morsel-driven
//! parallelism — and runs them on a scoped worker set:
//!
//! * Workers claim morsel indexes from one atomic counter — no work
//!   queue, no channel, no per-row synchronization.
//! * Each worker accumulates its own [`OpCounts`] and output run;
//!   the dispatcher merges counts once and concatenates outputs **in
//!   morsel order**, so a parallel run produces byte-identical results
//!   to the serial path.
//! * The run's [`RunLimits`] (cancel flag, deadline) are re-checked at
//!   every morsel claim — the same cooperative granularity the serial
//!   engine gets from its batch-boundary checkpoints. Row budgets are
//!   enforced by the caller right after the merge, against the merged
//!   counts.
//! * Memory-grant accounting is untouched: callers reserve governed
//!   bytes *before* dispatching (e.g. the hash-join build side).

use crate::engine::{ExecError, OpCounts};
use oodb_fault::RunLimits;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Rows per morsel. Small enough that cancellation latency stays in the
/// same ballpark as the serial engine's every-256-ticks checkpoint;
/// large enough that claim traffic (one `fetch_add` per morsel) is
/// noise.
pub const MORSEL_ROWS: usize = 1024;

/// Inputs below this size run serially even when parallelism is
/// enabled: two thread spawns cost more than evaluating a few thousand
/// predicate terms.
pub const MIN_PARALLEL_ROWS: usize = 4096;

/// Checks the cancel flag and deadline — the subset of [`RunLimits`] a
/// worker can evaluate without the executor's mutable counters.
fn check_limits(limits: &RunLimits) -> Result<(), ExecError> {
    if let Some(c) = &limits.cancel {
        if c.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
    }
    if let Some(d) = limits.deadline {
        if Instant::now() >= d {
            return Err(ExecError::DeadlineExceeded);
        }
    }
    Ok(())
}

/// Runs `work` over the rows `0..len`, one morsel range at a time, on up
/// to `workers` threads, returning the concatenated outputs (in row
/// order) and the merged operation counts.
///
/// `work` receives a row range plus the worker's private counts and
/// output run; it must be a pure function of those and of captured
/// shared state (`&Store`, `&QueryEnv`, a batch, a built hash table).
/// The first error — by morsel index, so failure is deterministic —
/// aborts the dispatch: other workers stop at their next claim. A
/// panicking worker propagates its panic to the caller after the scope
/// joins.
pub(crate) fn dispatch<T, F>(
    workers: usize,
    limits: &RunLimits,
    len: usize,
    work: F,
) -> Result<(Vec<T>, OpCounts), ExecError>
where
    T: Send,
    F: Fn(Range<usize>, &mut OpCounts, &mut Vec<T>) -> Result<(), ExecError> + Sync,
{
    let n_morsels = len.div_ceil(MORSEL_ROWS);
    let n_threads = workers.clamp(1, n_morsels.max(1));
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);

    // (counts, completed morsel runs, first failure) per worker.
    type WorkerYield<T> = (OpCounts, Vec<(usize, Vec<T>)>, Option<(usize, ExecError)>);
    let worker = || -> WorkerYield<T> {
        let mut counts = OpCounts::default();
        let mut produced = Vec::new();
        while !abort.load(Ordering::Relaxed) {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= n_morsels {
                break;
            }
            let rows = idx * MORSEL_ROWS..((idx + 1) * MORSEL_ROWS).min(len);
            let mut out = Vec::with_capacity(rows.len());
            if let Err(e) = check_limits(limits).and_then(|()| work(rows, &mut counts, &mut out)) {
                abort.store(true, Ordering::Relaxed);
                return (counts, produced, Some((idx, e)));
            }
            produced.push((idx, out));
        }
        (counts, produced, None)
    };

    let yields: Vec<std::thread::Result<WorkerYield<T>>> = if n_threads <= 1 {
        vec![Ok(worker())]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_threads).map(|_| s.spawn(worker)).collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    };

    let mut counts = OpCounts::default();
    let mut first_failure: Option<(usize, ExecError)> = None;
    let mut runs: Vec<Option<Vec<T>>> = (0..n_morsels).map(|_| None).collect();
    for y in yields {
        let (c, produced, failure) = y.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        counts.add(&c);
        for (idx, run) in produced {
            runs[idx] = Some(run);
        }
        if let Some((idx, e)) = failure {
            if first_failure.as_ref().is_none_or(|(i, _)| idx < *i) {
                first_failure = Some((idx, e));
            }
        }
    }
    if let Some((_, e)) = first_failure {
        return Err(e);
    }
    let mut out = Vec::with_capacity(len);
    for run in runs {
        out.extend(run.expect("no failure reported but a morsel is missing"));
    }
    Ok((out, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_fault::CancelToken;

    #[test]
    fn outputs_concatenate_in_input_order() {
        let (out, counts) = dispatch(4, &RunLimits::default(), 10_000, |rows, c, out| {
            for x in rows {
                c.tuples += 1;
                if x % 3 == 0 {
                    out.push(x * 2);
                }
            }
            Ok(())
        })
        .unwrap();
        let expect: Vec<usize> = (0..10_000).filter(|x| x % 3 == 0).map(|x| x * 2).collect();
        assert_eq!(out, expect);
        assert_eq!(counts.tuples, 10_000);
    }

    #[test]
    fn single_item_and_empty_inputs_work() {
        let (out, _) = dispatch(8, &RunLimits::default(), 1, |rows, _, o| {
            o.extend(rows.map(|x| x + 7));
            Ok(())
        })
        .unwrap();
        assert_eq!(out, vec![7]);
        let (out, _) = dispatch(8, &RunLimits::default(), 0, |rows, _, o| {
            o.extend(rows);
            Ok(())
        })
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn cancellation_is_observed_at_morsel_boundaries() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let limits = RunLimits {
            cancel: Some(cancel),
            ..RunLimits::default()
        };
        let err = dispatch(4, &limits, 50_000, |rows, _, o: &mut Vec<usize>| {
            o.extend(rows);
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
    }

    #[test]
    fn first_error_by_morsel_index_wins() {
        let err = dispatch(
            4,
            &RunLimits::default(),
            20_000,
            |rows, _, _: &mut Vec<()>| {
                // Rows 5000.. fail with a budget error, row 100 with a
                // malformed-plan error; the lowest failing *morsel* holds
                // row 100, so that error must be the one reported.
                for x in rows {
                    if x == 100 {
                        return Err(ExecError::MalformedPlan("item 100".into()));
                    } else if x >= 5000 {
                        return Err(ExecError::RowBudgetExceeded { budget: 1 });
                    }
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err, ExecError::MalformedPlan("item 100".into()));
    }

    #[test]
    fn counts_merge_across_workers() {
        let (_, counts) = dispatch(
            8,
            &RunLimits::default(),
            30_000,
            |rows, c, _: &mut Vec<()>| {
                c.preds += 2 * rows.len() as u64;
                c.hash_ops += rows.len() as u64;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(counts.preds, 60_000);
        assert_eq!(counts.hash_ops, 30_000);
    }
}
