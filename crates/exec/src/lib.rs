//! # `oodb-exec` — the query execution engine
//!
//! The paper deferred running plans: "we delay validating and refining
//! assembly's cost function until the query plan executor becomes
//! operational." This crate is that executor, operating against the
//! simulated storage manager of [`oodb_storage`], so every plan the
//! optimizer emits can actually be run and its simulated I/O compared with
//! the optimizer's estimate.
//!
//! Every physical operator of the algebra is implemented:
//!
//! * file scan (sequential page touches), index scan (B-tree walk + fetch),
//! * filter (predicate evaluation over bound objects),
//! * hybrid hash join (hash table on the left/build input),
//! * pointer join (partitioned reference fetching),
//! * **assembly** with a genuine *window of open references*: references
//!   are resolved in windows, each window's pages fetched in one elevator
//!   sweep — window 1 degenerates to one random fault per reference,
//! * Alg-Unnest, Alg-Project, and the hash set operations.
//!
//! Operators exchange columnar batches (see [`mod@tuple`]): one OID column per
//! bound variable plus a selection vector, so a filter narrows the
//! selection instead of copying rows and a join gathers columns by index
//! pairs. Rows become [`Tuple`]s (or projected values) only at the
//! result boundary.
//!
//! I/O is charged through [`oodb_storage::Io`] (buffer pool + seek-aware
//! disk); CPU-ish work is reported as operation counts ([`OpCounts`]) so
//! callers can convert with whatever cost constants they calibrate.

#![forbid(unsafe_code)]

pub mod engine;
pub mod eval;
pub mod morsel;
pub mod tuple;

pub use engine::{
    try_execute, try_execute_traced, ExecError, ExecResult, ExecStats, Executor, MemEffort,
    OpCounts,
};
/// Run-limit and fault types, re-exported so executor callers reach the
/// cancellation and injection machinery without a separate dependency.
pub use oodb_fault::{CancelToken, Fault, FaultClass, RunLimits};
/// Memory-governance types, re-exported for the same reason.
pub use oodb_mem::{MemStats, MemoryGovernor, MemoryGrant, PressureLevel};
pub use oodb_telemetry::OpTrace;
pub use tuple::Tuple;
