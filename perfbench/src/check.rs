//! Answer checking: every read's sorted rows must digest the same as
//! the greedy plan's, executed directly against the store.

use oodb_algebra::{QueryEnv, VarSet};
use oodb_core::CostParams;
use oodb_exec::{ExecResult, RunLimits};
use oodb_storage::Store;

/// FNV-1a over the rows, each terminated by a newline. Callers pass
/// rows already sorted, so the digest ignores plan-dependent order.
pub fn digest(rows: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for &b in row.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Renders result rows the way the query service does: projected values
/// joined by ` | `, or the result variables' bindings when the plan
/// root is not a projection.
pub fn render_rows(env: &QueryEnv, result_vars: VarSet, result: &ExecResult) -> Vec<String> {
    match result {
        ExecResult::Rows(rows) => rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
                cells.join(" | ")
            })
            .collect(),
        ExecResult::Tuples(tuples) => tuples
            .iter()
            .map(|t| {
                let cells: Vec<String> = env
                    .scopes
                    .iter()
                    .filter(|(id, _)| result_vars.contains(*id))
                    .filter_map(|(id, v)| t.try_get(id).map(|o| format!("{}={o}", v.name)))
                    .collect();
                cells.join("  ")
            })
            .collect(),
    }
}

/// The reference digest of `text`: compile, take the greedy plan, run
/// it, render and sort.
pub fn reference(store: &Store, text: &str) -> Result<u64, String> {
    let ast = zql::parser::parse(text).map_err(|e| e.to_string())?;
    let q = zql::simplify(&ast, store.schema(), store.catalog()).map_err(|e| e.to_string())?;
    let plan = oodb_core::greedy_plan(&q.env, CostParams::default(), &q.plan)
        .ok_or_else(|| format!("no greedy plan for {text}"))?;
    let (result, _) = oodb_exec::try_execute(store, &q.env, &plan, RunLimits::default())
        .map_err(|e| e.to_string())?;
    let mut rows = render_rows(&q.env, q.result_vars, &result);
    rows.sort();
    Ok(digest(&rows))
}
