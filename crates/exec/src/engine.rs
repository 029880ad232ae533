//! The executor: physical operators over the simulated store.

use crate::eval::{eval_operand, eval_pred};
use crate::morsel;
use crate::tuple::{Batch, PairRow, Row, Tuple};
use oodb_algebra::{
    Operand, PhysicalOp, PhysicalPlan, PredId, QueryEnv, SetOpKind, VarId, VarOrigin,
};
use oodb_fault::{Fault, RunLimits};
use oodb_mem::MemoryGrant;
use oodb_object::{FieldId, Oid, Value};
use oodb_storage::{DiskParams, DiskStats, Io, PageId, Store, StoreError};
use oodb_telemetry::OpTrace;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// A structured execution failure. Replaces the panic paths the engine
/// grew up with: storage faults, cooperative cancellation, deadline and
/// row-budget expiry, and malformed plans/traces all surface as typed
/// errors the service can map to user-visible failures.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// The storage layer reported an (injected) read fault.
    Fault(Fault),
    /// The run's [`oodb_fault::CancelToken`] was cancelled.
    Cancelled,
    /// The run's deadline passed at an operator batch boundary.
    DeadlineExceeded,
    /// The run materialized more tuples than its budget allows.
    RowBudgetExceeded {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// The run's memory grant could not cover even the smallest working
    /// unit (one hash-table chunk row, one staged set-op flag vector):
    /// spilling and staging were tried and still did not fit.
    MemoryExhausted {
        /// Bytes the failing reservation asked for.
        requested: u64,
        /// The per-query budget in force (`u64::MAX` = governor-capped
        /// only).
        budget: u64,
    },
    /// The plan is not executable (the static verifier should have caught
    /// this; reaching here indicates an optimizer or caller bug).
    MalformedPlan(String),
    /// Trace-tree bookkeeping broke during a traced run.
    MalformedTrace(String),
    /// An object dereference hit inconsistent store state (dangling OID,
    /// missing region). Reachable on partially recovered databases; the
    /// engine reports it instead of panicking so recovery-time probes and
    /// replay validation stay total.
    Corrupt(oodb_storage::StoreError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Fault(fault) => write!(f, "{fault}"),
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::DeadlineExceeded => write!(f, "execution deadline exceeded"),
            ExecError::RowBudgetExceeded { budget } => {
                write!(f, "row budget of {budget} tuples exceeded")
            }
            ExecError::MemoryExhausted { requested, budget } => {
                write!(
                    f,
                    "memory grant exhausted: {requested} bytes requested, budget {budget}"
                )
            }
            ExecError::MalformedPlan(msg) => write!(f, "malformed plan: {msg}"),
            ExecError::MalformedTrace(msg) => write!(f, "malformed trace: {msg}"),
            ExecError::Corrupt(e) => write!(f, "corrupt store state: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// CPU-ish operation counts, reported instead of seconds so callers apply
/// their own calibrated constants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Tuples produced by scans/unnests/projections.
    pub tuples: u64,
    /// Predicate terms evaluated.
    pub preds: u64,
    /// Hash-table builds + probes.
    pub hash_ops: u64,
    /// Reference dereferences (assembly / pointer join).
    pub derefs: u64,
}

impl OpCounts {
    /// Counts accumulated since `base` was captured.
    fn delta(&self, base: &OpCounts) -> OpCounts {
        OpCounts {
            tuples: self.tuples - base.tuples,
            preds: self.preds - base.preds,
            hash_ops: self.hash_ops - base.hash_ops,
            derefs: self.derefs - base.derefs,
        }
    }

    /// Folds `other` (a morsel worker's counts) into these.
    pub(crate) fn add(&mut self, other: &OpCounts) {
        self.tuples += other.tuples;
        self.preds += other.preds;
        self.hash_ops += other.hash_ops;
        self.derefs += other.derefs;
    }
}

/// Memory-governance effort for one run: what the grant held at peak and
/// what overflow work the governed operators performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemEffort {
    /// High-water mark of bytes reserved by this run's grant.
    pub peak_bytes: u64,
    /// Pages written to spill partitions (also in `disk.spill_writes`).
    pub spill_pages_written: u64,
    /// Pages read back from spill partitions.
    pub spill_pages_read: u64,
    /// Hash-join partitions that overflowed to simulated disk.
    pub spilled_partitions: u64,
    /// Reservations the grant refused this run.
    pub grant_denials: u64,
}

/// Execution statistics: simulated I/O plus operation counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Disk statistics (sequential/random/elevator reads, simulated
    /// seconds).
    pub disk: DiskStats,
    /// Operation counts.
    pub counts: OpCounts,
    /// Buffer-pool hits.
    pub buffer_hits: u64,
    /// Buffer-pool misses.
    pub buffer_misses: u64,
    /// Memory-grant accounting (peak bytes, spill traffic, denials).
    pub mem: MemEffort,
    /// Rows delivered at the plan root — the always-on cardinality sample
    /// the feedback loop compares against the root estimate, live even on
    /// the untraced hot path. Filled by the one-shot helpers
    /// ([`try_execute`], [`try_execute_traced`]) from the result itself.
    pub root_rows: u64,
    /// Rows produced by leaf scans (file + index) this run — the
    /// denominator for untraced selectivity attribution.
    pub leaf_rows: u64,
}

/// Result rows: raw tuples, or projected values when the plan root is a
/// projection.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecResult {
    /// Variable bindings (no projection at the root).
    Tuples(Vec<Tuple>),
    /// Projected rows.
    Rows(Vec<Vec<Value>>),
}

impl ExecResult {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        match self {
            ExecResult::Tuples(t) => t.len(),
            ExecResult::Rows(r) => r.len(),
        }
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tuples, panicking on projected results.
    pub fn tuples(&self) -> &[Tuple] {
        match self {
            ExecResult::Tuples(t) => t,
            ExecResult::Rows(_) => panic!("result was projected"),
        }
    }
}

/// Per-run accounting baseline: every counter the executor accumulates,
/// captured at the start of each `run*` call so [`Executor::stats`]
/// reports that run alone even when the executor (and its warm buffer
/// pool) is reused across queries.
#[derive(Clone, Copy, Debug, Default)]
struct RunBase {
    disk: DiskStats,
    counts: OpCounts,
    hits: u64,
    misses: u64,
    spilled_partitions: u64,
    leaf_rows: u64,
}

/// I/O counters at one instant, for per-operator trace deltas.
#[derive(Clone, Copy, Debug)]
struct IoMark {
    hits: u64,
    misses: u64,
    io_s: f64,
    spill_pages: u64,
}

/// The plan executor. One per query run, or reused across runs to model a
/// warm buffer pool — statistics are attributed per run either way (see
/// [`Executor::stats`]).
///
/// Buffer hits and misses are tallied **locally** from each access's
/// outcome, never read back from the pool's global counters. With a
/// [`oodb_storage::SharedBufferPool`] attached to the store, concurrent
/// executors share page residency, and pool-global counters interleave
/// arbitrarily — per-access tallying is what keeps each query's
/// [`ExecStats`] its own.
pub struct Executor<'a> {
    /// The database.
    pub store: &'a Store,
    /// The query context.
    pub env: &'a QueryEnv,
    /// The I/O stack (buffer pool + simulated disk).
    pub io: Io,
    counts: OpCounts,
    /// This executor's buffer outcomes (not the pool's globals).
    hits: u64,
    misses: u64,
    run_base: RunBase,
    tracing: bool,
    /// Stack of children-lists for the trace tree under construction;
    /// `exec` pushes a fresh frame before descending and folds it into the
    /// parent frame after.
    trace_stack: Vec<Vec<OpTrace>>,
    /// Cooperative run limits (deadline, cancellation, row budget),
    /// checked at operator boundaries and every 1024 rows touched.
    limits: RunLimits,
    /// Rows whose page this executor has touched — a page run counts
    /// each of its rows (drives the periodic mid-operator limit check).
    touched: u64,
    /// This run's memory grant, recreated at every `begin_run` from the
    /// store's governor (when attached) and `RunLimits::mem_budget`.
    /// Operators reserve against it in coarse units (a hash table, a
    /// partition, an assembly window) — never per row.
    grant: MemoryGrant,
    /// Hash-join partitions spilled to simulated disk, cumulative.
    spilled_partitions: u64,
    /// Rows produced by leaf scans (file + index), cumulative; reported
    /// per run via [`RunBase`] deltas like every other counter.
    leaf_rows: u64,
    /// CPU-loop iterations (hash build/probe, set-op staging) since
    /// creation; every 256th drives a limits check so a huge build is
    /// interruptible mid-loop, not only at operator boundaries.
    worked: u64,
}

impl<'a> Executor<'a> {
    /// Creates an executor. Charges I/O through the store's shared buffer
    /// pool when one is attached, otherwise through a private pool sized
    /// for the paper's DECstation.
    pub fn new(store: &'a Store, env: &'a QueryEnv) -> Self {
        let mut io = match store.shared_pool() {
            Some(pool) => Io::with_shared_pool(pool.clone(), DiskParams::default()),
            None => Io::decstation(),
        };
        // Route page access through the store's fault injector when one is
        // attached — the executor is where injected read faults surface.
        io.set_fault_injector(store.fault_injector().cloned());
        Executor {
            store,
            env,
            io,
            counts: OpCounts::default(),
            hits: 0,
            misses: 0,
            run_base: RunBase::default(),
            tracing: false,
            trace_stack: Vec::new(),
            limits: RunLimits::default(),
            touched: 0,
            grant: MemoryGrant::detached(None),
            spilled_partitions: 0,
            leaf_rows: 0,
            worked: 0,
        }
    }

    /// Installs cooperative run limits for subsequent `try_run*` calls.
    /// The limits are checked at every operator entry and exit, every
    /// 1024 rows touched and every 256 hash/set-op work units, so a
    /// runaway operator is interrupted mid-batch.
    ///
    /// [`RunLimits::workers`] above 1 runs the pure-CPU segments —
    /// predicate filters, the root projection, and in-memory hash-join
    /// probes — on that many morsel workers; their outputs are
    /// concatenated in morsel order, so results are byte-identical to a
    /// serial run. I/O-charging operators always stay on the calling
    /// thread.
    pub fn set_limits(&mut self, limits: RunLimits) {
        self.limits = limits;
    }

    /// Checks cancellation, deadline, and row budget. Cheap when the run
    /// is unlimited (three `Option` tests, no clock read).
    fn checkpoint(&self) -> Result<(), ExecError> {
        if let Some(c) = &self.limits.cancel {
            if c.is_cancelled() {
                return Err(ExecError::Cancelled);
            }
        }
        if let Some(d) = self.limits.deadline {
            if Instant::now() >= d {
                return Err(ExecError::DeadlineExceeded);
            }
        }
        if let Some(budget) = self.limits.row_budget {
            if self.counts.tuples - self.run_base.counts.tuples > budget {
                return Err(ExecError::RowBudgetExceeded { budget });
            }
        }
        Ok(())
    }

    /// Statistics for the current run: counters accumulated since the last
    /// `run*` call began (equivalently, since creation for a fresh
    /// executor). A reused executor keeps its warm buffer pool but never
    /// smears one run's I/O into the next run's numbers.
    pub fn stats(&self) -> ExecStats {
        let disk = self.io.disk_stats().delta(&self.run_base.disk);
        ExecStats {
            disk,
            counts: self.counts.delta(&self.run_base.counts),
            buffer_hits: self.hits - self.run_base.hits,
            buffer_misses: self.misses - self.run_base.misses,
            mem: MemEffort {
                peak_bytes: self.grant.peak(),
                spill_pages_written: disk.spill_writes,
                spill_pages_read: disk.spill_reads,
                spilled_partitions: self.spilled_partitions - self.run_base.spilled_partitions,
                grant_denials: self.grant.denials(),
            },
            root_rows: 0,
            leaf_rows: self.leaf_rows - self.run_base.leaf_rows,
        }
    }

    /// Statistics since the executor was created, across every run.
    pub fn cumulative_stats(&self) -> ExecStats {
        let disk = self.io.disk_stats();
        ExecStats {
            disk,
            counts: self.counts,
            buffer_hits: self.hits,
            buffer_misses: self.misses,
            mem: MemEffort {
                peak_bytes: self.grant.peak(),
                spill_pages_written: disk.spill_writes,
                spill_pages_read: disk.spill_reads,
                spilled_partitions: self.spilled_partitions,
                grant_denials: self.grant.denials(),
            },
            root_rows: 0,
            leaf_rows: self.leaf_rows,
        }
    }

    /// Marks the start of a run: subsequent [`Executor::stats`] reads
    /// report deltas from here. Draws a fresh memory grant from the
    /// store's governor (when attached) under this run's `mem_budget`;
    /// dropping the previous grant returns any stragglers, so governor
    /// ledgers reconcile across reuse.
    fn begin_run(&mut self) {
        self.run_base = RunBase {
            disk: self.io.disk_stats(),
            counts: self.counts,
            hits: self.hits,
            misses: self.misses,
            spilled_partitions: self.spilled_partitions,
            leaf_rows: self.leaf_rows,
        };
        self.grant = match self.store.memory_governor() {
            Some(gov) => gov.grant(self.limits.mem_budget),
            None => MemoryGrant::detached(self.limits.mem_budget),
        };
    }

    /// Runs a plan to completion, surfacing faults, cancellation, and
    /// limit expiry as [`ExecError`]s.
    pub fn try_run(&mut self, plan: &PhysicalPlan) -> Result<ExecResult, ExecError> {
        self.begin_run();
        self.checkpoint()?;
        self.exec_root(plan)
    }

    /// Runs a plan to completion while recording a per-operator
    /// [`OpTrace`]: actual rows, wall-clock time, and buffer/disk traffic
    /// for every node of the plan tree. This is `EXPLAIN ANALYZE`. On
    /// error the executor leaves traced mode cleanly, so it can be reused
    /// for further runs.
    pub fn try_run_traced(
        &mut self,
        plan: &PhysicalPlan,
    ) -> Result<(ExecResult, OpTrace), ExecError> {
        self.begin_run();
        self.tracing = true;
        self.trace_stack.clear();
        self.trace_stack.push(Vec::new());
        let result = self.checkpoint().and_then(|()| self.exec_root(plan));
        self.tracing = false;
        let result = result?;
        let root = self
            .trace_stack
            .pop()
            .and_then(|mut frame| frame.pop())
            .ok_or_else(|| ExecError::MalformedTrace("traced run produced no root trace".into()))?;
        Ok((result, root))
    }

    fn exec_root(&mut self, plan: &PhysicalPlan) -> Result<ExecResult, ExecError> {
        let PhysicalOp::AlgProject { items } = &plan.op else {
            return Ok(ExecResult::Tuples(self.exec(plan)?.tuples()));
        };
        // Projection is only legal at the root, so `exec` never sees it;
        // trace it here with the same wrap the inner nodes get.
        let rows = self.traced(plan, |ex| ex.project(items, &plan.children[0]), Vec::len)?;
        Ok(ExecResult::Rows(rows))
    }

    /// The root projection: the one place rows own their values.
    fn project(
        &mut self,
        items: &[Operand],
        child: &PhysicalPlan,
    ) -> Result<Vec<Vec<Value>>, ExecError> {
        let input = self.exec(child)?;
        let store = self.store;
        let rows = self.for_rows(input.len(), false, |i, counts, out| {
            counts.tuples += 1;
            let row = input.row(input.phys(i));
            let values = items
                .iter()
                .map(|op| eval_operand(store, &row, op).map(Cow::into_owned))
                .collect::<Result<Vec<_>, _>>()
                .map_err(ExecError::Corrupt)?;
            out.push(values);
            Ok(())
        })?;
        self.checkpoint()?;
        Ok(rows)
    }

    /// Runs a pure per-row `step` over rows `0..len` — in parallel
    /// morsels when the input is large and a worker set is configured,
    /// else serially on this thread with one [`Executor::work_tick`] per
    /// row when `tick` is set. Both paths keep row order and per-row
    /// accounting; the parallel one re-checks the run limits against
    /// the merged counts right after the dispatch.
    fn for_rows<T: Send>(
        &mut self,
        len: usize,
        tick: bool,
        step: impl Fn(usize, &mut OpCounts, &mut Vec<T>) -> Result<(), ExecError> + Sync,
    ) -> Result<Vec<T>, ExecError> {
        if self.limits.workers > 1 && len >= morsel::MIN_PARALLEL_ROWS {
            let (out, counts) = morsel::dispatch(
                self.limits.workers,
                &self.limits,
                len,
                |rows, counts, out| rows.into_iter().try_for_each(|i| step(i, counts, out)),
            )?;
            self.counts.add(&counts);
            self.checkpoint()?;
            return Ok(out);
        }
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            if tick {
                self.work_tick()?;
            }
            step(i, &mut self.counts, &mut out)?;
        }
        Ok(out)
    }

    fn n_vars(&self) -> usize {
        self.env.scopes.len()
    }

    fn page_of(&self, oid: Oid) -> Result<PageId, ExecError> {
        self.store.try_page_of(oid).map_err(ExecError::Corrupt)
    }

    /// Touches the page of each row in order. Each run of consecutive
    /// rows on one page is one [`Executor::touch_run`]; a store error
    /// surfaces after the rows before it were touched.
    fn touch_rows(
        &mut self,
        pages: impl IntoIterator<Item = Result<PageId, StoreError>>,
        row_tuples: u64,
    ) -> Result<(), ExecError> {
        let mut run: Option<(PageId, u64)> = None;
        for next in pages.into_iter().map(Some).chain([None]) {
            if let (Some((page, n)), Some(Ok(p))) = (&mut run, &next) {
                if page == p {
                    *n += 1;
                    continue;
                }
            }
            if let Some((page, n)) = run.take() {
                self.touch_run(page, n, row_tuples)?;
            }
            match next {
                Some(Ok(p)) => run = Some((p, 1)),
                Some(Err(e)) => return Err(ExecError::Corrupt(e)),
                None => {}
            }
        }
        Ok(())
    }

    /// `n` back-to-back accesses of one page, one per row: the first goes
    /// through the fault injector and the buffer pool, the other `n - 1`
    /// are counted hits ([`Io::repeat_hits`]). Hit/miss totals, the LRU
    /// order and disk charges equal `n` single touches. The run limits
    /// are still checked every 1024 rows touched, and each row adds
    /// `row_tuples` to the tuple count as it is touched, so a runaway
    /// scan stops where it did before.
    fn touch_run(&mut self, page: PageId, n: u64, row_tuples: u64) -> Result<(), ExecError> {
        let mut repeats = 0;
        for k in 0..n {
            self.touched += 1;
            if self.touched & 1023 == 0 {
                if let Err(e) = self.checkpoint() {
                    self.repeat_hits(page, repeats);
                    return Err(e);
                }
            }
            if k > 0 {
                repeats += 1;
            } else if self.io.try_touch(page).map_err(ExecError::Fault)? {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            self.counts.tuples += row_tuples;
        }
        self.repeat_hits(page, repeats);
        Ok(())
    }

    fn repeat_hits(&mut self, page: PageId, n: u64) {
        self.hits += n;
        self.io.repeat_hits(page, n);
    }

    /// Touches a batch in elevator order, attributing hits/misses. A
    /// fault aborts before any page of the batch is charged.
    fn touch_elevator(&mut self, pages: &[PageId]) -> Result<(), ExecError> {
        self.touched += pages.len() as u64;
        self.checkpoint()?;
        let (hits, misses) = self
            .io
            .try_touch_elevator(pages)
            .map_err(ExecError::Fault)?;
        self.hits += hits;
        self.misses += misses;
        Ok(())
    }

    /// One unit of CPU-loop work (a hash build/probe row, a staged
    /// set-op key). Every 256th unit re-checks the run limits, so
    /// cancellation and deadlines reach *inside* a huge hash build
    /// instead of waiting for the operator to finish.
    fn work_tick(&mut self) -> Result<(), ExecError> {
        self.worked += 1;
        if self.worked & 255 == 0 {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Bytes one bound variable slot costs in our simulated accounting.
    const SLOT_BYTES: u64 = 16;
    /// Fixed overhead charged per tuple held in a governed structure.
    const TUPLE_OVERHEAD: u64 = 32;
    /// Extra bytes charged per hash-table entry over the tuple itself.
    const HASH_ENTRY_OVERHEAD: u64 = 48;

    /// Approximate resident bytes of one materialized tuple.
    fn tuple_bytes(&self) -> u64 {
        self.n_vars() as u64 * Self::SLOT_BYTES + Self::TUPLE_OVERHEAD
    }

    /// Approximate bytes one build-side row occupies in a hash table.
    fn hash_entry_bytes(&self) -> u64 {
        self.tuple_bytes() + Self::HASH_ENTRY_OVERHEAD
    }

    /// Pages a run of `rows` tuples occupies when spilled.
    fn spill_pages_for(&self, rows: usize) -> u64 {
        let page_bytes = u64::from(self.io.disk.params().page_bytes).max(1);
        (rows as u64 * self.tuple_bytes())
            .div_ceil(page_bytes)
            .max(1)
    }

    /// Charges a spill-partition write: sequential disk time plus the
    /// governor's byte ledger.
    fn charge_spill_write(&mut self, pages: u64) {
        self.io.disk.spill_write(pages);
        let page_bytes = u64::from(self.io.disk.params().page_bytes);
        self.grant.note_spill(pages * page_bytes, 0);
    }

    /// Charges a spill-partition re-read; pairs one-for-one with
    /// [`Executor::charge_spill_write`] so written == read at quiesce.
    fn charge_spill_read(&mut self, pages: u64) {
        self.io.disk.spill_read(pages);
        let page_bytes = u64::from(self.io.disk.params().page_bytes);
        self.grant.note_spill(0, pages * page_bytes);
    }

    /// Reserves the largest of `rows`, `rows / 2`, `rows / 4`, … rows of
    /// `entry` bytes each that the grant admits; returns `(rows, bytes)`.
    /// Fails typed only when even one row does not fit.
    fn reserve_chunk(&mut self, rows: usize, entry: u64) -> Result<(usize, u64), ExecError> {
        let mut chunk = rows;
        loop {
            let need = (chunk as u64 * entry).max(1);
            if self.grant.try_reserve(need) {
                return Ok((chunk, need));
            }
            if chunk <= 1 {
                return Err(ExecError::MemoryExhausted {
                    requested: need,
                    budget: self.grant.budget(),
                });
            }
            chunk /= 2;
        }
    }

    fn io_mark(&self) -> IoMark {
        IoMark {
            hits: self.hits,
            misses: self.misses,
            io_s: self.io.elapsed_s(),
            spill_pages: self.io.disk_stats().spill_pages(),
        }
    }

    /// Runs one plan node; when tracing, wraps it with a stopwatch and an
    /// I/O probe and records the node (with `rows(&output)` actual rows)
    /// into the trace tree.
    fn traced<T>(
        &mut self,
        plan: &PhysicalPlan,
        run: impl FnOnce(&mut Self) -> Result<T, ExecError>,
        rows: impl Fn(&T) -> usize,
    ) -> Result<T, ExecError> {
        if !self.tracing {
            return run(self);
        }
        let start = Instant::now();
        let before = self.io_mark();
        self.trace_stack.push(Vec::new());
        let out = run(self)?;
        let children = self
            .trace_stack
            .pop()
            .ok_or_else(|| ExecError::MalformedTrace("trace frame missing".into()))?;
        let node = OpTrace {
            label: oodb_algebra::display::render_physical_op(self.env, &plan.op),
            actual_rows: rows(&out) as u64,
            elapsed_ns: start.elapsed().as_nanos() as u64,
            buffer_hits: self.hits - before.hits,
            buffer_misses: self.misses - before.misses,
            sim_io_s: self.io.elapsed_s() - before.io_s,
            spill_pages: self.io.disk_stats().spill_pages() - before.spill_pages,
            children,
        };
        self.trace_stack
            .last_mut()
            .ok_or_else(|| ExecError::MalformedTrace("parent trace frame missing".into()))?
            .push(node);
        Ok(out)
    }

    /// Executes one operator. The run limits are checked at every
    /// operator boundary (entry and exit).
    fn exec(&mut self, plan: &PhysicalPlan) -> Result<Batch, ExecError> {
        self.checkpoint()?;
        let out = self.traced(plan, |ex| ex.exec_node(plan), Batch::len)?;
        self.checkpoint()?;
        Ok(out)
    }

    fn exec_node(&mut self, plan: &PhysicalPlan) -> Result<Batch, ExecError> {
        let child = |i: usize| &plan.children[i];
        let store = self.store;
        match &plan.op {
            PhysicalOp::FileScan { coll, var } => {
                let oids = store.members(*coll);
                self.touch_rows(oids.iter().map(|&o| store.try_page_of(o)), 1)?;
                self.leaf_rows += oids.len() as u64;
                Ok(Batch::scan(self.n_vars(), *var, oids.to_vec()))
            }

            PhysicalOp::IndexScan { index, var, pred } => {
                let idx = store.index(*index);
                let full_scan = self.env.preds.pred(*pred).terms.is_empty();
                let matches: Vec<Oid> = if full_scan {
                    // Full ordered sweep: every leaf, entries in key order;
                    // fetch order must follow the keys, not the OIDs.
                    idx.all_ordered()
                } else {
                    let (op, key) = self.index_term(*pred)?;
                    // Point or range lookup: fetch in OID (storage) order,
                    // which is elevator-friendly.
                    let mut m = idx.lookup_cmp(op, &key);
                    m.sort_unstable();
                    m
                };
                let leaves = idx.lookup_pages(matches.len() as u64);
                self.touch_rows(leaves.into_iter().map(Ok), 0)?;
                self.touch_rows(matches.iter().map(|&o| store.try_page_of(o)), 0)?;
                self.counts.tuples += matches.len() as u64;
                self.leaf_rows += matches.len() as u64;
                Ok(Batch::scan(self.n_vars(), *var, matches))
            }

            PhysicalOp::Filter { pred } => {
                let input = self.exec(child(0))?;
                let env = self.env;
                let sel = self.for_rows(input.len(), false, |i, counts, out| {
                    let p = input.phys(i);
                    let (ok, n) =
                        eval_pred(store, env, &input.row(p), *pred).map_err(ExecError::Corrupt)?;
                    counts.preds += n;
                    if ok {
                        out.push(p as u32);
                    }
                    Ok(())
                })?;
                Ok(input.select(sel))
            }

            PhysicalOp::HybridHashJoin { pred } => {
                let left = self.exec(child(0))?;
                let right = self.exec(child(1))?;
                self.hash_join(*pred, &left, &right)
            }

            PhysicalOp::PointerJoin { pred } => {
                let input = self.exec(child(0))?.compact();
                self.pointer_join(*pred, input)
            }

            PhysicalOp::Assembly { targets, window } => {
                let mut batch = self.exec(child(0))?.compact();
                for &v in targets {
                    self.assemble(&mut batch, v, *window)?;
                }
                Ok(batch)
            }

            PhysicalOp::WarmAssembly { target } => {
                let batch = self.exec(child(0))?.compact();
                self.warm_assemble(batch, *target)
            }

            PhysicalOp::AlgUnnest { out } => {
                let input = self.exec(child(0))?;
                let VarOrigin::Unnest { src, field } = self.env.scopes.var(*out).origin else {
                    return Err(ExecError::MalformedPlan(
                        "AlgUnnest output must have Unnest origin".into(),
                    ));
                };
                let (mut rows, mut members) = (Vec::new(), Vec::new());
                for i in 0..input.len() {
                    let p = input.phys(i);
                    let set = store
                        .try_read_field(input.row(p).get(src), field)
                        .map_err(ExecError::Corrupt)?
                        .as_ref_set()
                        .ok_or_else(|| {
                            ExecError::MalformedPlan("unnest field must be set-valued".into())
                        })?;
                    self.counts.tuples += set.len() as u64;
                    rows.extend(std::iter::repeat_n(p as u32, set.len()));
                    members.extend_from_slice(set);
                }
                let mut batch = input.gather(&rows);
                batch.bind(*out, members);
                Ok(batch)
            }

            PhysicalOp::AlgProject { .. } => Err(ExecError::MalformedPlan(
                "projection only supported at the plan root".into(),
            )),

            PhysicalOp::HashSetOp { kind } => {
                let left = self.exec(child(0))?.compact();
                let right = self.exec(child(1))?.compact();
                self.set_op(*kind, left, right)
            }

            PhysicalOp::MergeJoin { pred } => {
                let left = self.exec(child(0))?;
                let right = self.exec(child(1))?;
                self.merge_join(*pred, &left, &right)
            }

            PhysicalOp::Sort { key } => {
                let input = self.exec(child(0))?;
                self.counts.hash_ops += input.len() as u64; // sort work proxy
                                                            // Extract keys up front so corruption surfaces as an error
                                                            // (a comparator closure cannot propagate one).
                let mut keyed = (0..input.len())
                    .map(|i| {
                        let p = input.phys(i);
                        let k = store.try_read_field(input.row(p).get(key.var), key.field);
                        k.map(|k| (k, p as u32)).map_err(ExecError::Corrupt)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                keyed.sort_by(|a, b| a.0.partial_cmp_val(b.0).unwrap_or(Ordering::Equal));
                let order: Vec<u32> = keyed.into_iter().map(|(_, p)| p).collect();
                Ok(input.gather(&order))
            }
        }
    }

    /// Extracts the comparison operator and constant key of an index-scan
    /// predicate, normalizing `const <op> attr` to `attr <flipped-op>
    /// const`.
    fn index_term(&self, pred: PredId) -> Result<(oodb_object::value::CmpLike, Value), ExecError> {
        let p = self.env.preds.pred(pred);
        for t in &p.terms {
            if let Operand::Const(v) = &t.right {
                return Ok((t.op.as_cmp_like(), v.clone()));
            }
            if let Operand::Const(v) = &t.left {
                return Ok((t.op.flipped().as_cmp_like(), v.clone()));
            }
        }
        Err(ExecError::MalformedPlan(
            "index-scan predicate has no constant".into(),
        ))
    }

    /// Maximum partition-recursion depth for a spilling hash join;
    /// beyond it (skewed keys that never split) the join falls back to
    /// grant-bounded chunking, which always terminates.
    const MAX_SPILL_DEPTH: u32 = 4;
    /// Partition fan-out per spill level.
    const SPILL_FANOUT: usize = 8;

    fn hash_join(&mut self, pred: PredId, left: &Batch, right: &Batch) -> Result<Batch, ExecError> {
        let p = self.env.preds.pred(pred);
        let first = p
            .terms
            .iter()
            .find(|t| t.op == oodb_algebra::CmpOp::Eq)
            .ok_or_else(|| ExecError::MalformedPlan("hash join needs an equality term".into()))?;
        // Decide which operand belongs to which side by its bindings.
        let binds = |b: &Batch, op: &Operand| !b.is_empty() && op.var().is_some_and(|v| b.binds(v));
        let (left_key, right_key) = if binds(left, &first.left) || binds(right, &first.right) {
            (&first.left, &first.right)
        } else {
            (&first.right, &first.left)
        };
        let join = JoinInput {
            pred,
            left,
            right,
            left_key,
            right_key,
        };
        let pairs = self.hash_join_governed(&join, left.live(), right.live(), 0)?;
        Ok(Batch::join(left, right, &pairs))
    }

    /// The true hybrid: build in memory when the grant covers the build
    /// side; otherwise partition both sides by a depth-salted rehash of
    /// the join key, spill each partition to simulated disk at
    /// sequential rates, and recurse — producing exactly the pairs the
    /// in-memory join would. Rows are physical indexes into the sides.
    fn hash_join_governed(
        &mut self,
        join: &JoinInput,
        lrows: Vec<u32>,
        rrows: Vec<u32>,
        depth: u32,
    ) -> Result<Vec<(u32, u32)>, ExecError> {
        let need = (lrows.len() as u64 * self.hash_entry_bytes()).max(1);
        if self.grant.try_reserve(need) {
            let out = self.hash_join_in_memory(join, &lrows, &rrows);
            self.grant.release(need);
            return out;
        }
        if depth >= Self::MAX_SPILL_DEPTH {
            return self.hash_join_chunked(join, &lrows, &rrows);
        }
        // Grant refused: split into FANOUT partition pairs. A key's
        // partition depends only on (key, depth), so matching rows land
        // together and partitions join independently.
        let salt = oodb_fault::splitmix64(0xA55E_B1E0 ^ u64::from(depth));
        let part_of =
            |k: u64| (oodb_fault::splitmix64(k ^ salt) % Self::SPILL_FANOUT as u64) as usize;
        let mut lparts = vec![Vec::new(); Self::SPILL_FANOUT];
        let mut rparts = vec![Vec::new(); Self::SPILL_FANOUT];
        for (rows, side, key, parts) in [
            (&lrows, join.left, join.left_key, &mut lparts),
            (&rrows, join.right, join.right_key, &mut rparts),
        ] {
            for &p in rows {
                self.work_tick()?;
                self.counts.hash_ops += 1;
                // Keyless rows can never match — the in-memory build skips
                // them too.
                if let Some(k) = join_key(self.store, side, p, key)? {
                    parts[part_of(k)].push(p);
                }
            }
        }
        // Write every productive partition out, then read each back and
        // join it. One write pairs with one read, so spill bytes
        // reconcile at quiesce; partitions that cannot produce rows
        // (either side empty) are dropped unspilled.
        let parts: Vec<(Vec<u32>, Vec<u32>, u64)> = lparts
            .into_iter()
            .zip(rparts)
            .filter(|(lp, rp)| !lp.is_empty() && !rp.is_empty())
            .map(|(lp, rp)| {
                let pages = self.spill_pages_for(lp.len() + rp.len());
                (lp, rp, pages)
            })
            .collect();
        for &(_, _, pages) in &parts {
            self.charge_spill_write(pages);
            self.spilled_partitions += 1;
        }
        let mut out = Vec::new();
        for (lp, rp, pages) in parts {
            self.checkpoint()?;
            self.charge_spill_read(pages);
            out.extend(self.hash_join_governed(join, lp, rp, depth + 1)?);
        }
        Ok(out)
    }

    /// Classic build + probe over the whole build side; callers have
    /// already reserved the table's bytes. Emits matches as
    /// `(left row, right row)` pairs in probe order.
    fn hash_join_in_memory(
        &mut self,
        join: &JoinInput,
        lrows: &[u32],
        rrows: &[u32],
    ) -> Result<Vec<(u32, u32)>, ExecError> {
        // Build on the left input ("hash table of the referenced objects").
        let mut table: HashMap<u64, Vec<u32>, BuildHasherDefault<Digest>> = HashMap::default();
        for &l in lrows {
            self.work_tick()?;
            self.counts.hash_ops += 1;
            if let Some(k) = join_key(self.store, join.left, l, join.left_key)? {
                table.entry(k).or_default().push(l);
            }
        }
        // Probe. The build above is serial (it mutates the table and the
        // grant has already covered its bytes); the probe is a pure
        // function of (table, left, right) and parallelizes over right
        // morsels when a worker set is configured.
        let (store, env) = (self.store, self.env);
        self.for_rows(rrows.len(), true, |i, counts, out| {
            counts.hash_ops += 1;
            let r = rrows[i];
            let Some(k) = join_key(store, join.right, r, join.right_key)? else {
                return Ok(());
            };
            for &l in table.get(&k).map_or(&[][..], Vec::as_slice) {
                // Verify the full predicate (hash collisions + residual
                // conjuncts) on the pair, before gathering anything.
                let pair = PairRow {
                    left: join.left.row(l as usize),
                    right: join.right.row(r as usize),
                };
                let (ok, n) =
                    eval_pred(store, env, &pair, join.pred).map_err(ExecError::Corrupt)?;
                counts.preds += n;
                if ok {
                    counts.tuples += 1;
                    out.push((l, r));
                }
            }
            Ok(())
        })
    }

    /// Last-resort join when partitioning cannot split the keys: build
    /// over the largest left chunk the grant admits (at least one row)
    /// and probe the whole right side per chunk, charging each extra
    /// probe pass as a sequential spool out and back. Fails typed only
    /// when even a single-row chunk does not fit.
    fn hash_join_chunked(
        &mut self,
        join: &JoinInput,
        lrows: &[u32],
        rrows: &[u32],
    ) -> Result<Vec<(u32, u32)>, ExecError> {
        let entry = self.hash_entry_bytes();
        let probe_pages = self.spill_pages_for(rrows.len());
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < lrows.len() {
            self.checkpoint()?;
            let (chunk, need) = self.reserve_chunk(lrows.len() - i, entry)?;
            if i > 0 {
                self.charge_spill_write(probe_pages);
                self.charge_spill_read(probe_pages);
            }
            let joined = self.hash_join_in_memory(join, &lrows[i..i + chunk], rrows);
            self.grant.release(need);
            out.extend(joined?);
            i += chunk;
        }
        Ok(out)
    }

    fn pointer_join(&mut self, pred: PredId, mut batch: Batch) -> Result<Batch, ExecError> {
        let p = self.env.preds.pred(pred);
        let term = p
            .terms
            .first()
            .ok_or_else(|| ExecError::MalformedPlan("pointer join needs a term".into()))?;
        let (ref_on_left, target) = term.as_ref_eq().ok_or_else(|| {
            ExecError::MalformedPlan("pointer join needs a reference equality".into())
        })?;
        let ref_op = if ref_on_left { &term.left } else { &term.right };

        // Partition: gather all references, fetch their pages in one
        // elevator sweep, then bind.
        let mut refs = Vec::with_capacity(batch.len());
        for p in 0..batch.len() {
            self.counts.derefs += 1;
            let oid = eval_operand(self.store, &batch.row(p), ref_op)
                .map_err(ExecError::Corrupt)?
                .as_ref_oid()
                .ok_or_else(|| {
                    ExecError::MalformedPlan("reference operand must yield a reference".into())
                })?;
            refs.push(oid);
        }
        let pages: Vec<PageId> = refs
            .iter()
            .map(|&o| self.page_of(o))
            .collect::<Result<_, _>>()?;
        self.touch_elevator(&pages)?;
        batch.bind(target, refs);
        Ok(batch)
    }

    /// The source variable and link field a Mat-origin `target` resolves
    /// through.
    fn mat_origin(&self, target: VarId, what: &str) -> Result<(VarId, Option<FieldId>), ExecError> {
        match self.env.scopes.var(target).origin {
            VarOrigin::Mat { src, field } => Ok((src, field)),
            _ => Err(ExecError::MalformedPlan(format!(
                "{what} target must have Mat origin"
            ))),
        }
    }

    /// The reference `target` resolves to on `row`. A plan may assemble a
    /// component the input already binds (an extent scan of the
    /// component's collection); the binding IS the reference, so resolve
    /// through the source only when the target is still open.
    fn mat_ref(
        &self,
        row: &impl Row,
        target: VarId,
        (src, field): (VarId, Option<FieldId>),
    ) -> Result<Oid, ExecError> {
        if let Some(o) = row.try_get(target) {
            return Ok(o);
        }
        let Some(f) = field else {
            return Ok(row.get(src));
        };
        self.store
            .try_read_field(row.get(src), f)
            .map_err(ExecError::Corrupt)?
            .as_ref_oid()
            .ok_or_else(|| ExecError::MalformedPlan("Mat field must hold a reference".into()))
    }

    fn assemble(&mut self, batch: &mut Batch, target: VarId, window: u32) -> Result<(), ExecError> {
        let origin = self.mat_origin(target, "assembly")?;
        // An open reference costs bookkeeping bytes while its window is
        // in flight; under memory pressure the window shrinks, trading
        // the elevator's seek discount for staying inside the grant. A
        // window of one needs no reservation (that is the floor).
        const OPEN_REF_BYTES: u64 = 48;
        let mut window = window.max(1) as usize;
        let mut reserved = 0u64;
        while window > 1 {
            let need = window as u64 * OPEN_REF_BYTES;
            if self.grant.try_reserve(need) {
                reserved = need;
                break;
            }
            window /= 2;
        }
        let mut refs = Vec::with_capacity(batch.len());
        while refs.len() < batch.len() {
            // Satellite guarantee: cancellation/deadline reach every
            // window boundary, not just operator entry/exit.
            self.checkpoint()?;
            let (start, end) = (refs.len(), (refs.len() + window).min(batch.len()));
            // Open a window of references, fetch its pages in one elevator
            // sweep, resolve, slide on.
            for p in start..end {
                self.counts.derefs += 1;
                refs.push(self.mat_ref(&batch.row(p), target, origin)?);
            }
            let pages: Vec<PageId> = refs[start..]
                .iter()
                .map(|&o| self.page_of(o))
                .collect::<Result<_, _>>()?;
            if window == 1 {
                self.touch_run(pages[0], 1, 0)?;
            } else {
                self.touch_elevator(&pages)?;
            }
        }
        if reserved > 0 {
            self.grant.release(reserved);
        }
        batch.bind(target, refs);
        Ok(())
    }

    /// Warm-start assembly: sweep the component's whole collection
    /// sequentially into the buffer pool, then resolve every reference as
    /// a buffer hit.
    fn warm_assemble(&mut self, mut batch: Batch, target: VarId) -> Result<Batch, ExecError> {
        let origin = self.mat_origin(target, "warm assembly")?;
        let domain = self
            .env
            .var_domain(target)
            .ok_or_else(|| ExecError::MalformedPlan("warm assembly needs a known domain".into()))?;
        let store = self.store;
        self.touch_rows(store.scan_pages(domain).into_iter().map(Ok), 0)?;
        let mut refs = Vec::with_capacity(batch.len());
        let mut failed = Ok(());
        for p in 0..batch.len() {
            self.counts.derefs += 1;
            match self.mat_ref(&batch.row(p), target, origin) {
                Ok(oid) => refs.push(oid),
                Err(e) => {
                    failed = Err(e);
                    break;
                }
            }
        }
        // The referenced pages are (almost certainly) resident now;
        // touching them records the buffer hits honestly.
        self.touch_rows(refs.iter().map(|&o| store.try_page_of(o)), 0)?;
        failed?;
        batch.bind(target, refs);
        Ok(batch)
    }

    /// Merge join over key-sorted inputs: advance two cursors, pair up
    /// equal-key groups, verify residual conjuncts.
    fn merge_join(
        &mut self,
        pred: PredId,
        left: &Batch,
        right: &Batch,
    ) -> Result<Batch, ExecError> {
        let p = self.env.preds.pred(pred);
        let eq = p
            .terms
            .iter()
            .find(|t| t.op == oodb_algebra::CmpOp::Eq)
            .ok_or_else(|| ExecError::MalformedPlan("merge join needs an equality term".into()))?;
        // Orient operands by which side binds their variable.
        let lv = eq.left.var().ok_or_else(|| {
            ExecError::MalformedPlan("merge join needs an attribute operand".into())
        })?;
        let (l_op, r_op) = if !left.is_empty() && left.binds(lv) {
            (&eq.left, &eq.right)
        } else {
            (&eq.right, &eq.left)
        };
        // Extract both key columns up front (totalizes corruption; the
        // run-gathering below then needs no fallible closure).
        let store = self.store;
        let keys = |b: &Batch, rows: &[u32], op| {
            rows.iter()
                .map(|&p| eval_operand(store, &b.row(p as usize), op).map_err(ExecError::Corrupt))
                .collect::<Result<Vec<_>, _>>()
        };
        let (lrows, rrows) = (left.live(), right.live());
        let (lkeys, rkeys) = (keys(left, &lrows, l_op)?, keys(right, &rrows, r_op)?);
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < lkeys.len() && j < rkeys.len() {
            self.counts.tuples += 1;
            let (kl, kr) = (&lkeys[i], &rkeys[j]);
            match kl.total_cmp_val(kr) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    // Gather both equal-key runs and cross them.
                    let i_end = (i..lkeys.len())
                        .find(|&x| lkeys[x] != *kl)
                        .unwrap_or(lkeys.len());
                    let j_end = (j..rkeys.len())
                        .find(|&y| rkeys[y] != *kr)
                        .unwrap_or(rkeys.len());
                    for &l in &lrows[i..i_end] {
                        for &r in &rrows[j..j_end] {
                            let pair = PairRow {
                                left: left.row(l as usize),
                                right: right.row(r as usize),
                            };
                            let (ok, n) = eval_pred(store, self.env, &pair, pred)
                                .map_err(ExecError::Corrupt)?;
                            self.counts.preds += n;
                            if ok {
                                out.push((l, r));
                            }
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        Ok(Batch::join(left, right, &out))
    }

    /// Extra bytes charged per key held in a set-op hash set.
    const SET_ENTRY_OVERHEAD: u64 = 48;

    /// Approximate bytes one bound-slot key occupies in a set-op table.
    fn set_entry_bytes(&self) -> u64 {
        self.tuple_bytes() + Self::SET_ENTRY_OVERHEAD
    }

    /// Hash set ops over dense inputs, governed: when the grant covers
    /// the key sets, the classic hashed variant runs; when refused, a
    /// staged variant picks the identical rows in bounded memory. Both
    /// return the kept rows of each side; the output is the kept left
    /// rows followed by the kept right rows (union only).
    fn set_op(&mut self, kind: SetOpKind, left: Batch, right: Batch) -> Result<Batch, ExecError> {
        if kind == SetOpKind::Union && left.bound_vars() != right.bound_vars() {
            return Err(ExecError::MalformedPlan(
                "union inputs must bind the same variables".into(),
            ));
        }
        let need = ((left.len() + right.len()) as u64 * self.set_entry_bytes()).max(1);
        let (keep_left, keep_right) = if self.grant.try_reserve(need) {
            let kept = self.set_op_hashed(kind, &left, &right);
            self.grant.release(need);
            kept?
        } else {
            self.set_op_staged(kind, &left, &right)?
        };
        let mut out = left.gather(&keep_left);
        out.append(&right, &keep_right);
        Ok(out)
    }

    fn set_op_hashed(
        &mut self,
        kind: SetOpKind,
        left: &Batch,
        right: &Batch,
    ) -> Result<(Vec<u32>, Vec<u32>), ExecError> {
        let mut right_keys = HashSet::with_capacity(right.len());
        for p in 0..right.len() {
            self.work_tick()?;
            self.counts.hash_ops += 1;
            right_keys.insert(right.key(p));
        }
        self.counts.hash_ops += left.len() as u64;
        if kind != SetOpKind::Union {
            let keep_on_match = kind == SetOpKind::Intersect;
            let keep = (0..left.len() as u32)
                .filter(|&p| right_keys.contains(&left.key(p as usize)) == keep_on_match)
                .collect();
            return Ok((keep, Vec::new()));
        }
        let mut seen = HashSet::new();
        let mut keep = (Vec::new(), Vec::new());
        for (side, kept) in [(left, &mut keep.0), (right, &mut keep.1)] {
            for p in 0..side.len() {
                self.work_tick()?;
                if seen.insert(side.key(p)) {
                    kept.push(p as u32);
                }
            }
        }
        Ok(keep)
    }

    /// Memory-bounded set ops keeping exactly the rows
    /// [`Executor::set_op_hashed`] keeps:
    ///
    /// - **Union** sorts an index array over the concatenated inputs by
    ///   key (stable tie-break on chain position) and keeps each key's
    ///   first chain occurrence — one index and one flag per row instead
    ///   of a hash set of keys.
    /// - **Intersect/Difference** stage the right side through
    ///   grant-sized key chunks, marking matched left rows; left order
    ///   is preserved.
    fn set_op_staged(
        &mut self,
        kind: SetOpKind,
        left: &Batch,
        right: &Batch,
    ) -> Result<(Vec<u32>, Vec<u32>), ExecError> {
        let nl = left.len();
        if kind == SetOpKind::Union {
            let key = |i: usize| {
                if i < nl {
                    left.key(i)
                } else {
                    right.key(i - nl)
                }
            };
            let total = nl + right.len();
            // One u32 index + one flag byte per row.
            let need = (total as u64 * 5).max(1);
            if !self.grant.try_reserve(need) {
                return Err(ExecError::MemoryExhausted {
                    requested: need,
                    budget: self.grant.budget(),
                });
            }
            self.counts.hash_ops += total as u64; // sort work proxy
            let mut idx: Vec<u32> = (0..total as u32).collect();
            idx.sort_by(|&a, &b| key(a as usize).cmp(&key(b as usize)).then(a.cmp(&b)));
            let mut keep = vec![false; total];
            let mut g = 0;
            while g < idx.len() {
                self.work_tick()?;
                let kg = key(idx[g] as usize);
                // Ascending tie-break means idx[g] is the first chain
                // occurrence of this key.
                keep[idx[g] as usize] = true;
                g += 1;
                while g < idx.len() && key(idx[g] as usize) == kg {
                    g += 1;
                }
            }
            self.grant.release(need);
            let kept = |range: std::ops::Range<usize>, base: usize| {
                range
                    .filter(|&i| keep[i])
                    .map(|i| (i - base) as u32)
                    .collect()
            };
            return Ok((kept(0..nl, 0), kept(nl..total, nl)));
        }
        let flags_need = (nl as u64).max(1);
        if !self.grant.try_reserve(flags_need) {
            return Err(ExecError::MemoryExhausted {
                requested: flags_need,
                budget: self.grant.budget(),
            });
        }
        let mut matched = vec![false; nl];
        let entry = self.set_entry_bytes();
        let mut j = 0usize;
        while j < right.len() {
            self.checkpoint()?;
            let (chunk, need) = self
                .reserve_chunk(right.len() - j, entry)
                .inspect_err(|_| self.grant.release(flags_need))?;
            let mut keys = HashSet::with_capacity(chunk);
            for p in j..j + chunk {
                self.work_tick()?;
                self.counts.hash_ops += 1;
                keys.insert(right.key(p));
            }
            for (p, m) in matched.iter_mut().enumerate() {
                if !*m {
                    self.work_tick()?;
                    self.counts.hash_ops += 1;
                    *m = keys.contains(&left.key(p));
                }
            }
            self.grant.release(need);
            j += chunk;
        }
        self.grant.release(flags_need);
        let keep_on_match = kind == SetOpKind::Intersect;
        let keep = (0..nl as u32)
            .filter(|&p| matched[p as usize] == keep_on_match)
            .collect();
        Ok((keep, Vec::new()))
    }
}

/// One hash join's fixed inputs: the predicate, both sides and the key
/// operand each side is hashed on.
struct JoinInput<'b> {
    pred: PredId,
    left: &'b Batch,
    right: &'b Batch,
    left_key: &'b Operand,
    right_key: &'b Operand,
}

/// The [`Value::hash_key`] digest of `key` on physical row `row` of
/// `side`; `None` for keyless (NULL, set-valued) rows.
fn join_key(
    store: &Store,
    side: &Batch,
    row: u32,
    key: &Operand,
) -> Result<Option<u64>, ExecError> {
    let value = eval_operand(store, &side.row(row as usize), key).map_err(ExecError::Corrupt)?;
    Ok(value.hash_key())
}

/// Hasher for hash-join tables, whose keys already are
/// [`Value::hash_key`] digests: the digest passes through instead of
/// being hashed a second time. Unlike the default hasher this gives no
/// protection against values chosen to share a bucket; join keys are
/// values read from the store, not from request input.
#[derive(Default)]
struct Digest(u64);

impl Hasher for Digest {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
}

/// One-shot execution under cooperative [`RunLimits`]: fresh executor,
/// run, return result + stats or the [`ExecError`] that stopped the run.
/// [`RunLimits::workers`] selects morsel-parallel execution.
pub fn try_execute(
    store: &Store,
    env: &QueryEnv,
    plan: &PhysicalPlan,
    limits: RunLimits,
) -> Result<(ExecResult, ExecStats), ExecError> {
    let mut ex = Executor::new(store, env);
    ex.set_limits(limits);
    let result = ex.try_run(plan)?;
    let mut stats = ex.stats();
    stats.root_rows = result.len() as u64;
    Ok((result, stats))
}

/// One-shot `EXPLAIN ANALYZE`: [`try_execute`] plus the per-operator
/// trace tree.
pub fn try_execute_traced(
    store: &Store,
    env: &QueryEnv,
    plan: &PhysicalPlan,
    limits: RunLimits,
) -> Result<(ExecResult, ExecStats, OpTrace), ExecError> {
    let mut ex = Executor::new(store, env);
    ex.set_limits(limits);
    let (result, trace) = ex.try_run_traced(plan)?;
    let mut stats = ex.stats();
    stats.root_rows = result.len() as u64;
    Ok((result, stats, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_algebra::{CmpOp, PlanEst, QueryBuilder};
    use oodb_storage::{generate_paper_db, GenConfig};

    fn plan(op: PhysicalOp, children: Vec<PhysicalPlan>) -> PhysicalPlan {
        PhysicalPlan {
            op,
            children,
            est: PlanEst::default(),
        }
    }

    fn scan(coll: oodb_object::CollectionId, var: VarId) -> PhysicalPlan {
        plan(PhysicalOp::FileScan { coll, var }, vec![])
    }

    fn execute(store: &Store, env: &QueryEnv, plan: &PhysicalPlan) -> (ExecResult, ExecStats) {
        try_execute(store, env, plan, RunLimits::default()).expect("execution")
    }

    #[test]
    fn file_scan_returns_all_members_with_sequential_io() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let env = qb.into_env();
        let scan = scan(m.ids.cities, c);
        let (res, stats) = execute(&store, &env, &scan);
        assert_eq!(res.len(), store.members(m.ids.cities).len());
        // Dense scan: almost everything sequential.
        assert!(stats.disk.seq_reads >= stats.disk.rand_reads);
    }

    #[test]
    fn filter_agrees_with_oracle() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, t) = qb.get(m.ids.tasks, "t");
        let pred = qb.cmp_const(t, m.ids.task_time, CmpOp::Eq, Value::Int(100));
        let env = qb.into_env();
        let p = plan(PhysicalOp::Filter { pred }, vec![scan(m.ids.tasks, t)]);
        let (res, _) = execute(&store, &env, &p);
        let oracle = store
            .members(m.ids.tasks)
            .iter()
            .filter(|&&o| store.read_field(o, m.ids.task_time) == &Value::Int(100))
            .count();
        assert_eq!(res.len(), oracle);
    }

    #[test]
    fn assembly_resolves_references_and_window_matters() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (_, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let env = qb.into_env();

        let mk = |window: u32| {
            plan(
                PhysicalOp::Assembly {
                    targets: vec![cm],
                    window,
                },
                vec![scan(m.ids.cities, c)],
            )
        };
        let (res_w, stats_w) = execute(&store, &env, &mk(8192));
        let (res_1, stats_1) = execute(&store, &env, &mk(1));
        assert_eq!(res_w.len(), res_1.len());
        // Same bindings regardless of window.
        for (a, b) in res_w.tuples().iter().zip(res_1.tuples()) {
            assert_eq!(a.get(cm), b.get(cm));
            assert_eq!(
                Some(a.get(cm)),
                store.read_field(a.get(c), m.ids.city_mayor).as_ref_oid()
            );
        }
        // The windowed elevator is cheaper on simulated time.
        assert!(
            stats_w.disk.total_s < stats_1.disk.total_s,
            "window {} vs window-1 {}",
            stats_w.disk.total_s,
            stats_1.disk.total_s
        );
    }

    #[test]
    fn hash_join_matches_pointer_join() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (emp, e) = qb.get(m.ids.employees, "e");
        let (_, d) = qb.mat(emp, e, m.ids.emp_dept, "d");
        let pred = qb.ref_eq(e, m.ids.emp_dept, d);
        let env = qb.into_env();

        let emp_scan = || scan(m.ids.employees, e);
        // HHJ: referenced objects (departments) on the build/left side.
        let hhj = plan(
            PhysicalOp::HybridHashJoin { pred },
            vec![scan(m.ids.department_extent, d), emp_scan()],
        );
        let pj = plan(PhysicalOp::PointerJoin { pred }, vec![emp_scan()]);
        let (r1, _) = execute(&store, &env, &hhj);
        let (r2, _) = execute(&store, &env, &pj);
        assert_eq!(r1.len(), r2.len());
        assert_eq!(r1.len(), store.members(m.ids.employees).len());
        let set1: HashSet<&Tuple> = r1.tuples().iter().collect();
        assert!(r2.tuples().iter().all(|t| set1.contains(t)));
    }

    #[test]
    fn set_ops_behave() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, t) = qb.get(m.ids.tasks, "t");
        let p100 = qb.cmp_const(t, m.ids.task_time, CmpOp::Eq, Value::Int(100));
        let ple = qb.cmp_const(t, m.ids.task_time, CmpOp::Le, Value::Int(100));
        let env = qb.into_env();
        let scan = || scan(m.ids.tasks, t);
        let f100 = plan(PhysicalOp::Filter { pred: p100 }, vec![scan()]);
        let fle = plan(PhysicalOp::Filter { pred: ple }, vec![scan()]);

        let inter = plan(
            PhysicalOp::HashSetOp {
                kind: SetOpKind::Intersect,
            },
            vec![f100.clone(), fle.clone()],
        );
        let diff = plan(
            PhysicalOp::HashSetOp {
                kind: SetOpKind::Difference,
            },
            vec![fle.clone(), f100.clone()],
        );
        let union = plan(
            PhysicalOp::HashSetOp {
                kind: SetOpKind::Union,
            },
            vec![f100.clone(), fle.clone()],
        );
        let (ri, _) = execute(&store, &env, &inter);
        let (rd, _) = execute(&store, &env, &diff);
        let (ru, _) = execute(&store, &env, &union);
        let (r100, _) = execute(&store, &env, &f100);
        let (rle, _) = execute(&store, &env, &fle);
        // time==100 ⊆ time<=100.
        assert_eq!(ri.len(), r100.len());
        assert_eq!(rd.len(), rle.len() - r100.len());
        assert_eq!(ru.len(), rle.len());
    }

    /// The spilling hybrid join must produce exactly the rows the
    /// in-memory join does — partitioned, recursed, or chunked — while
    /// charging visible spill I/O and reconciling the governor's ledger.
    #[test]
    fn spilling_hash_join_matches_in_memory() {
        use oodb_mem::MemoryGovernor;
        let (mut store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (emp, e) = qb.get(m.ids.employees, "e");
        let (_, d) = qb.mat(emp, e, m.ids.emp_dept, "d");
        let pred = qb.ref_eq(e, m.ids.emp_dept, d);
        let env = qb.into_env();
        let hhj = plan(
            PhysicalOp::HybridHashJoin { pred },
            vec![scan(m.ids.employees, e), scan(m.ids.department_extent, d)],
        );
        let (baseline, base_stats) = try_execute(&store, &env, &hhj, RunLimits::default()).unwrap();
        assert_eq!(base_stats.mem.spill_pages_written, 0, "unconstrained run");
        let mut base_sorted: Vec<&Tuple> = baseline.tuples().iter().collect();
        base_sorted.sort_by_key(|t| (t.get(e), t.get(d)));

        // Govern at a fraction of the 500-row build side; every budget
        // must still produce the identical result multiset.
        let gov = MemoryGovernor::new(u64::MAX);
        store.attach_memory_governor(gov.clone());
        for budget in [8192u64, 1024, 256] {
            let (res, stats) = try_execute(
                &store,
                &env,
                &hhj,
                RunLimits {
                    mem_budget: Some(budget),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|err| panic!("budget {budget}: {err}"));
            let mut sorted: Vec<&Tuple> = res.tuples().iter().collect();
            sorted.sort_by_key(|t| (t.get(e), t.get(d)));
            assert_eq!(sorted, base_sorted, "budget {budget}");
            assert!(
                stats.mem.spilled_partitions > 0 || stats.mem.grant_denials > 0,
                "budget {budget} should constrain a 500-row build: {:?}",
                stats.mem
            );
            assert_eq!(
                stats.mem.spill_pages_written, stats.mem.spill_pages_read,
                "every spilled page is read back exactly once (budget {budget})"
            );
            assert!(
                stats.mem.peak_bytes <= budget,
                "peak {} exceeds budget {budget}",
                stats.mem.peak_bytes
            );
            assert!(stats.disk.total_s > base_stats.disk.total_s || budget >= 8192);
        }
        let gs = gov.stats();
        assert_eq!(gs.reserved, 0, "quiesce: all grants returned");
        assert_eq!(gs.reserved_total, gs.released_total);
        assert_eq!(gs.spill_bytes_written, gs.spill_bytes_read);
    }

    /// A grant that cannot hold even one hash-table row is a typed
    /// error, not a panic or a wrong answer.
    #[test]
    fn zero_memory_budget_is_a_typed_error() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (emp, e) = qb.get(m.ids.employees, "e");
        let (_, d) = qb.mat(emp, e, m.ids.emp_dept, "d");
        let pred = qb.ref_eq(e, m.ids.emp_dept, d);
        let env = qb.into_env();
        let hhj = plan(
            PhysicalOp::HybridHashJoin { pred },
            vec![scan(m.ids.department_extent, d), scan(m.ids.employees, e)],
        );
        let err = try_execute(
            &store,
            &env,
            &hhj,
            RunLimits {
                mem_budget: Some(0),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, ExecError::MemoryExhausted { budget: 0, .. }),
            "{err}"
        );
    }

    /// Staged set-ops under a tight grant emit byte-identical output to
    /// the hashed variants, in the same order.
    #[test]
    fn staged_set_ops_match_hashed_exactly() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, t) = qb.get(m.ids.tasks, "t");
        let p100 = qb.cmp_const(t, m.ids.task_time, CmpOp::Eq, Value::Int(100));
        let ple = qb.cmp_const(t, m.ids.task_time, CmpOp::Le, Value::Int(100));
        let env = qb.into_env();
        let scan = || scan(m.ids.tasks, t);
        let f100 = plan(PhysicalOp::Filter { pred: p100 }, vec![scan()]);
        let fle = plan(PhysicalOp::Filter { pred: ple }, vec![scan()]);
        for kind in [
            SetOpKind::Union,
            SetOpKind::Intersect,
            SetOpKind::Difference,
        ] {
            let p = plan(
                PhysicalOp::HashSetOp { kind },
                vec![fle.clone(), f100.clone()],
            );
            let (unconstrained, _) = try_execute(&store, &env, &p, RunLimits::default()).unwrap();
            let (staged, stats) = try_execute(
                &store,
                &env,
                &p,
                RunLimits {
                    // Enough for flags and a small key chunk, far too
                    // small for the full key sets.
                    mem_budget: Some(128),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|err| panic!("{kind:?}: {err}"));
            assert!(
                stats.mem.grant_denials > 0,
                "{kind:?} should have been staged"
            );
            assert_eq!(
                staged.tuples(),
                unconstrained.tuples(),
                "{kind:?}: staged output must match hashed output exactly"
            );
        }
    }

    /// A grant-shrunk assembly window binds the same references, paying
    /// more simulated seeks for the smaller elevator sweep.
    #[test]
    fn pressured_assembly_window_shrinks_not_breaks() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (_, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let env = qb.into_env();
        let p = plan(
            PhysicalOp::Assembly {
                targets: vec![cm],
                window: 8192,
            },
            vec![scan(m.ids.cities, c)],
        );
        let (full, full_stats) = try_execute(&store, &env, &p, RunLimits::default()).unwrap();
        let (tight, tight_stats) = try_execute(
            &store,
            &env,
            &p,
            RunLimits {
                mem_budget: Some(1024), // window shrinks to ~21 refs
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(full.tuples(), tight.tuples(), "bindings are unaffected");
        assert!(
            tight_stats.disk.total_s > full_stats.disk.total_s,
            "smaller window loses elevator discount: {} vs {}",
            tight_stats.disk.total_s,
            full_stats.disk.total_s
        );
    }

    /// Satellite: the row budget (and with it, cancellation and the
    /// deadline — they share the checkpoint) interrupts a hash join
    /// *mid-probe*, not only at the next operator boundary.
    #[test]
    fn row_budget_interrupts_hash_join_mid_probe() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (emp, e) = qb.get(m.ids.employees, "e");
        let (_, d) = qb.mat(emp, e, m.ids.emp_dept, "d");
        let pred = qb.ref_eq(e, m.ids.emp_dept, d);
        let env = qb.into_env();
        let hhj = plan(
            PhysicalOp::HybridHashJoin { pred },
            vec![scan(m.ids.department_extent, d), scan(m.ids.employees, e)],
        );
        // The scans produce 10 + 500 tuples; the probe then emits one
        // joined tuple per employee. A budget of 600 survives the scans
        // and expires partway through the probe's 500 emissions.
        let mut ex = Executor::new(&store, &env);
        ex.set_limits(RunLimits {
            row_budget: Some(600),
            ..Default::default()
        });
        let err = ex.try_run(&hhj).unwrap_err();
        assert_eq!(err, ExecError::RowBudgetExceeded { budget: 600 });
        let probed = ex.stats().counts.hash_ops;
        assert!(
            probed < 510,
            "the probe loop must stop mid-flight, not at operator exit \
             (hash ops = {probed}, full join would be 510)"
        );
    }

    #[test]
    fn reused_executor_attributes_stats_per_run() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let env = qb.into_env();
        let scan = scan(m.ids.cities, c);
        let mut ex = Executor::new(&store, &env);
        ex.try_run(&scan).expect("first run");
        let first = ex.stats();
        ex.try_run(&scan).expect("second run");
        let second = ex.stats();
        // Second run reports only its own work: all buffer hits (pool is
        // warm), no fresh misses, same tuple count as the first run.
        assert_eq!(second.counts.tuples, first.counts.tuples);
        assert_eq!(second.buffer_misses, 0, "warm rerun must not miss");
        assert!(second.buffer_hits > 0);
        assert_eq!(second.disk.pages(), 0, "warm rerun reads no pages");
        // Cumulative view still aggregates both runs.
        let cum = ex.cumulative_stats();
        assert_eq!(
            cum.counts.tuples,
            first.counts.tuples + second.counts.tuples
        );
        assert_eq!(cum.buffer_misses, first.buffer_misses);
    }

    #[test]
    fn traced_run_reconciles_with_stats() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, t) = qb.get(m.ids.tasks, "t");
        let pred = qb.cmp_const(t, m.ids.task_time, CmpOp::Eq, Value::Int(100));
        let env = qb.into_env();
        let p = plan(PhysicalOp::Filter { pred }, vec![scan(m.ids.tasks, t)]);
        let (result, stats, trace) =
            try_execute_traced(&store, &env, &p, RunLimits::default()).expect("traced run");
        // The trace tree mirrors the plan tree.
        assert_eq!(trace.children.len(), 1);
        assert!(trace.label.starts_with("Filter"), "{}", trace.label);
        assert!(trace.children[0].label.starts_with("File Scan"));
        // Root actual rows equal result cardinality.
        assert_eq!(trace.actual_rows, result.len() as u64);
        // Root (cumulative) I/O equals the run's ExecStats.
        assert_eq!(
            trace.buffer_hits + trace.buffer_misses,
            stats.buffer_hits + stats.buffer_misses
        );
        assert!((trace.sim_io_s - stats.disk.total_s).abs() < 1e-12);
        // The scan produced at least as many rows as survived the filter.
        assert!(trace.children[0].actual_rows >= trace.actual_rows);
        // Untraced execution returns identical results.
        let (plain, _) = execute(&store, &env, &p);
        assert_eq!(plain, result);
    }

    #[test]
    fn shared_pool_attribution_is_per_executor() {
        let (mut store, m) = generate_paper_db(GenConfig::small());
        store.attach_shared_pool(1 << 14);
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let env = qb.into_env();
        let scan = scan(m.ids.cities, c);
        let (_, cold) = execute(&store, &env, &scan);
        let (_, warm) = execute(&store, &env, &scan);
        // The second executor is brand new, yet the shared pool is warm.
        assert!(cold.buffer_misses > 0);
        assert_eq!(warm.buffer_misses, 0, "shared pool must stay warm");
        assert_eq!(warm.buffer_hits, cold.buffer_hits + cold.buffer_misses);
        // Pool-wide counters equal the sum of the per-executor tallies.
        let pool = store.shared_pool().unwrap();
        assert_eq!(
            pool.stats(),
            (
                cold.buffer_hits + warm.buffer_hits,
                cold.buffer_misses + warm.buffer_misses
            )
        );
    }

    #[test]
    fn nested_projection_is_a_typed_error_not_a_panic() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let items = vec![Operand::VarOid(c)];
        let env = qb.into_env();
        // A projection *below* a filter is malformed: only the root may
        // project. The engine must refuse, not panic.
        let p = plan(
            PhysicalOp::Filter {
                pred: env.preds.intern(oodb_algebra::Pred { terms: vec![] }),
            },
            vec![plan(
                PhysicalOp::AlgProject { items },
                vec![scan(m.ids.cities, c)],
            )],
        );
        let err = try_execute(&store, &env, &p, RunLimits::default()).unwrap_err();
        assert!(matches!(err, ExecError::MalformedPlan(_)), "{err:?}");
    }

    #[test]
    fn cancelled_token_stops_the_run() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let env = qb.into_env();
        let scan = scan(m.ids.cities, c);
        let cancel = oodb_fault::CancelToken::new();
        cancel.cancel();
        let limits = RunLimits {
            cancel: Some(cancel),
            ..Default::default()
        };
        assert_eq!(
            try_execute(&store, &env, &scan, limits).unwrap_err(),
            ExecError::Cancelled
        );
    }

    #[test]
    fn row_budget_interrupts_a_scan() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let env = qb.into_env();
        let scan = scan(m.ids.cities, c);
        let limits = RunLimits {
            row_budget: Some(0),
            ..Default::default()
        };
        assert_eq!(
            try_execute(&store, &env, &scan, limits).unwrap_err(),
            ExecError::RowBudgetExceeded { budget: 0 }
        );
    }

    #[test]
    fn injected_faults_surface_as_typed_errors() {
        let (mut store, m) = generate_paper_db(GenConfig::small());
        store.attach_fault_injector(oodb_storage::FaultInjector::new(
            oodb_storage::FaultConfig {
                read_fault_rate: 1.0,
                ..Default::default()
            },
        ));
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let env = qb.into_env();
        let scan = scan(m.ids.cities, c);
        let err = try_execute(&store, &env, &scan, RunLimits::default()).unwrap_err();
        assert!(matches!(err, ExecError::Fault(_)), "{err:?}");
        // Disabling the injector restores infallible execution.
        store.fault_injector().unwrap().set_enabled(false);
        assert!(try_execute(&store, &env, &scan, RunLimits::default()).is_ok());
    }

    /// A run of rows on one page consults the injector once, yet a fault
    /// on a page in the middle of a scan surfaces exactly as per-row
    /// touches surfaced it: the first faulty page in scan order, with its
    /// class. Permanent faults repeat; retries heal transient pages one
    /// by one until the scan completes.
    #[test]
    fn mid_scan_faults_keep_page_and_class_and_heal_on_retry() {
        use oodb_storage::{FaultConfig, FaultInjector};
        let (mut store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, e) = qb.get(m.ids.employees, "e");
        let env = qb.into_env();
        let p = scan(m.ids.employees, e);
        let (clean, _) = execute(&store, &env, &p);
        let pages = store.scan_pages(m.ids.employees);
        assert!(clean.len() > 2 * pages.len(), "several rows per page");
        for permanent_ratio in [1.0, 0.0] {
            // The first seed whose faulty pages all lie past the first.
            let (config, faulty) = (1..)
                .map(|seed| {
                    let config = FaultConfig {
                        read_fault_rate: 0.1,
                        permanent_ratio,
                        seed,
                        ..Default::default()
                    };
                    let probe = FaultInjector::new(config);
                    let faulty: Vec<Fault> = pages
                        .iter()
                        .filter_map(|&pg| probe.check_read(pg).err())
                        .collect();
                    (config, faulty)
                })
                .find(|(_, f)| f.first().is_some_and(|f| f.page != pages[0]))
                .unwrap();
            let injector = FaultInjector::new(config);
            store.attach_fault_injector(injector.clone());
            let run = || try_execute(&store, &env, &p, RunLimits::default());
            if permanent_ratio == 1.0 {
                for _ in 0..2 {
                    assert_eq!(run().unwrap_err(), ExecError::Fault(faulty[0]));
                }
                continue;
            }
            for &f in &faulty {
                assert_eq!(run().unwrap_err(), ExecError::Fault(f));
            }
            assert_eq!(run().unwrap().0, clean, "retries heal every page");
            // Healed pages pass once per run that reaches them, not once
            // per row.
            let k = faulty.len() as u64;
            assert_eq!(injector.stats().healed_accesses, k * (k + 1) / 2);
        }
    }

    #[test]
    fn unnest_expands_teams() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (tasks, t) = qb.get(m.ids.tasks, "t");
        let (_, mm) = qb.unnest(tasks, t, m.ids.task_team_members, "m");
        let env = qb.into_env();
        let p = plan(
            PhysicalOp::AlgUnnest { out: mm },
            vec![scan(m.ids.tasks, t)],
        );
        let (res, _) = execute(&store, &env, &p);
        let oracle: usize = store
            .members(m.ids.tasks)
            .iter()
            .map(|&o| {
                store
                    .read_field(o, m.ids.task_team_members)
                    .as_ref_set()
                    .unwrap()
                    .len()
            })
            .sum();
        assert_eq!(res.len(), oracle);
    }

    /// A plan exercising every morsel-parallel segment — filter, root
    /// projection, and the in-memory hash-join probe — over an input
    /// large enough to actually dispatch (employees at 1/10 scale =
    /// 5000 rows > the parallel threshold).
    fn morsel_heavy_plan(
        m: &oodb_object::paper::PaperModel,
        mut qb: QueryBuilder,
    ) -> (PhysicalPlan, QueryEnv) {
        let (_, e) = qb.get(m.ids.employees, "e");
        let (_, d) = qb.get(m.ids.department_extent, "d");
        let join = qb.ref_eq(e, m.ids.emp_dept, d);
        let sel = qb.cmp_const(
            e,
            m.ids.emp_salary,
            CmpOp::Ge,
            Value::Int(0), // keep every row so the probe stays big
        );
        let name = Operand::Attr {
            var: e,
            field: m.ids.person_name,
        };
        let p = plan(
            PhysicalOp::AlgProject { items: vec![name] },
            vec![plan(
                PhysicalOp::HybridHashJoin { pred: join },
                vec![
                    scan(m.ids.department_extent, d),
                    plan(
                        PhysicalOp::Filter { pred: sel },
                        vec![scan(m.ids.employees, e)],
                    ),
                ],
            )],
        );
        (p, qb.into_env())
    }

    #[test]
    fn morsel_parallel_run_is_byte_identical_to_serial() {
        let (store, m) = generate_paper_db(GenConfig {
            scale_div: 10,
            ..Default::default()
        });
        let qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (p, env) = morsel_heavy_plan(&m, qb);

        let mut serial = Executor::new(&store, &env);
        let base = serial.try_run(&p).expect("serial run");
        let base_stats = serial.stats();

        for workers in [2, 4, 8] {
            let mut par = Executor::new(&store, &env);
            par.set_limits(RunLimits {
                workers,
                ..Default::default()
            });
            let res = par.try_run(&p).expect("morsel run");
            assert_eq!(res, base, "{workers} workers");
            let stats = par.stats();
            // Identical work accounting, not just identical rows.
            assert_eq!(stats.counts.tuples, base_stats.counts.tuples);
            assert_eq!(stats.counts.preds, base_stats.counts.preds);
            assert_eq!(stats.counts.hash_ops, base_stats.counts.hash_ops);
        }
    }

    #[test]
    fn morsel_parallel_run_observes_cancellation() {
        use oodb_fault::CancelToken;
        let (store, m) = generate_paper_db(GenConfig {
            scale_div: 10,
            ..Default::default()
        });
        let qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (p, env) = morsel_heavy_plan(&m, qb);
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut ex = Executor::new(&store, &env);
        ex.set_limits(RunLimits {
            cancel: Some(cancel),
            workers: 4,
            ..Default::default()
        });
        assert_eq!(ex.try_run(&p).unwrap_err(), ExecError::Cancelled);
    }
}
