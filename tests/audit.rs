//! The plan-space auditor, end to end: for each paper query the
//! enumeration oracle lists every physical plan the memo encodes, the
//! winner must be cost-minimal over that space, every estimate must sit
//! inside its sound cardinality interval, and — the part `oodb-core`
//! cannot do itself — **every enumerated plan must execute to the same
//! canonical result bytes**. Row order is plan-dependent (hash join vs
//! pointer join), so results are canonicalized to a sorted multiset
//! before the byte comparison; the queries have set semantics.
//!
//! `OODB_AUDIT_QUICK=1` (the CI audit job) shrinks the store and the
//! enumeration limits so the corpus runs in seconds.

use oodb_exec::{ExecResult, ExecStats};
use open_oodb::prelude::*;
use open_oodb::volcano::EnumLimits;
use open_oodb::zql;

fn quick() -> bool {
    std::env::var("OODB_AUDIT_QUICK").is_ok_and(|v| v != "0")
}

fn limits() -> EnumLimits {
    if quick() {
        EnumLimits {
            max_groups: 128,
            max_exprs: 1024,
            max_plans: 2_000,
        }
    } else {
        EnumLimits::default()
    }
}

fn execute(store: &Store, env: &QueryEnv, plan: &PhysicalPlan) -> (ExecResult, ExecStats) {
    try_execute(store, env, plan, RunLimits::default()).expect("execution")
}

fn db() -> (Store, open_oodb::object::paper::PaperModel) {
    generate_paper_db(GenConfig {
        scale_div: if quick() { 200 } else { 50 },
        ..Default::default()
    })
}

/// Canonical result bytes: each row rendered, sorted as a multiset.
/// Tuples are restricted to the query's result variables — plan families
/// legitimately differ in which *auxiliary* variables they leave bound
/// (a collapsed index scan never binds the mayor variable; an assembly
/// plan does).
fn canon(result: &ExecResult, vars: VarSet) -> String {
    let mut lines: Vec<String> = match result {
        ExecResult::Rows(rows) => rows.iter().map(|r| format!("{r:?}")).collect(),
        ExecResult::Tuples(ts) => ts
            .iter()
            .map(|t| {
                let bound: Vec<String> = vars
                    .iter()
                    .map(|v| format!("v{}={:?}", v.index(), t.get(v)))
                    .collect();
                bound.join(",")
            })
            .collect(),
    };
    lines.sort();
    lines.join("\n")
}

/// Runs the full audit on one query: oracle assertions plus execution of
/// every enumerated plan. Returns the number of plans exercised.
fn audit_query(src: &str, label: &str) -> usize {
    let (store, model) = db();
    let q = zql::compile(src, &model.schema, &model.catalog).expect("compiles");
    let opt = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules());
    // Plain optimization first, timed, for the EXPERIMENTS.md overhead
    // table (`-- --nocapture` prints the comparison).
    let t0 = std::time::Instant::now();
    opt.optimize(&q.plan, q.result_vars).expect("feasible plan");
    let optimize = t0.elapsed();
    let t1 = std::time::Instant::now();
    let report = opt
        .audit(&q.plan, q.result_vars, None, limits())
        .expect("feasible plan");
    let audit = t1.elapsed();
    eprintln!(
        "{label}: {} plans; optimize {:?}, audit {:?} ({:.1}x)",
        report.plans_enumerated(),
        optimize,
        audit,
        audit.as_secs_f64() / optimize.as_secs_f64().max(1e-9)
    );
    assert!(
        !report.truncated,
        "{label}: plan space exceeded the audit limits — a cut oracle proves nothing"
    );
    assert!(
        report.cost_minimal,
        "{label}: winner {} beaten by an enumerated plan at {}",
        report.winner_cost, report.best_cost
    );
    assert!(
        report.interval_diags.is_empty(),
        "{label}: estimates escaped their sound intervals: {:?}",
        report.interval_diags
    );

    let (wres, _) = execute(&store, &q.env, &report.winner);
    let want = canon(&wres, q.result_vars);
    for (i, plan) in report.plans.iter().enumerate() {
        let (r, _) = execute(&store, &q.env, plan);
        assert_eq!(
            canon(&r, q.result_vars),
            want,
            "{label}: plan {i} of {} diverged from the winner:\n{}",
            report.plans.len(),
            render_physical(&q.env, plan)
        );
    }
    report.plans.len()
}

/// Query 1 (Figure 1): employees × departments with a three-way
/// conjunction and a projection root.
#[test]
fn query1_all_enumerated_plans_agree() {
    let n = audit_query(
        r#"SELECT Newobject( e.name(), d.name() )
FROM Employee e IN Employees, Department d IN Department
WHERE d.floor() == 3 && e.age() >= 32 && e.last_raise() >= Date(1992,1,1)
  && e.dept() == d ;"#,
        "query1",
    );
    assert!(
        n >= 2,
        "query1 space has competing join strategies, got {n}"
    );
}

/// Query 2 (Figure 8): the collapse-to-index-scan query.
#[test]
fn query2_all_enumerated_plans_agree() {
    let n = audit_query(
        r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
        "query2",
    );
    assert!(
        n >= 3,
        "query2 space: collapse, assembly, and join families, got {n}"
    );
}

/// Query 3 (Figure 10): Query 2 plus a projection that forces the
/// mayor's state into memory (the assembly-enforcer query).
#[test]
fn query3_all_enumerated_plans_agree() {
    let n = audit_query(
        r#"SELECT Newobject(c.mayor().age(), c.name())
FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
        "query3",
    );
    assert!(n >= 2, "got {n}");
}

/// Query 4: the EXISTS / set-valued traversal query.
#[test]
fn query4_all_enumerated_plans_agree() {
    let n = audit_query(
        r#"SELECT t FROM Task t IN Tasks
WHERE t.time() == 100
  && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred")"#,
        "query4",
    );
    assert!(n >= 2, "got {n}");
}

/// The execute-time half of the interval audit: actual row counts of a
/// traced run stay inside the intervals derived from the catalog — zero
/// false positives on a store the catalog describes correctly.
#[test]
fn traced_actuals_stay_inside_intervals_on_seed_corpus() {
    let (store, model) = db();
    for src in [
        r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
        r#"SELECT t FROM Task t IN Tasks WHERE t.time() == 100"#,
    ] {
        let q = zql::compile(src, &model.schema, &model.catalog).expect("compiles");
        let out = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
            .optimize(&q.plan, q.result_vars)
            .expect("plan");
        let (_, _, trace) = try_execute_traced(&store, &q.env, &out.plan, RunLimits::default())
            .expect("traced execution");
        let diags = open_oodb::core::verify::check_actual_cards(&q.env, &out.plan, &trace);
        assert!(diags.is_empty(), "{src}: {diags:?}");
    }
}
