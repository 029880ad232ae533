//! Executor accounting golden: the simulated I/O and CPU accounting of
//! every enumerated Q1–Q4 audit plan (quick corpus) and every
//! `exec_validation` plan, pinned line by line against
//! `tests/golden/exec_accounting.txt`.
//!
//! Each line records, for one plan: buffer hits and misses, the
//! simulated disk seconds as raw `f64` bits (bit-exact), the operation
//! counts, leaf and root rows, and the actual rows of every trace node in
//! pre-order. An engine change that moves any of these — a different
//! touch pattern, a lost predicate count, a trace node that reports the
//! wrong cardinality — fails here with the first differing line.
//!
//! On a mismatch the full actual rendering is written next to the test
//! binary's temporary directory (`exec_accounting.actual`) so the diff
//! can be inspected; the golden itself is only ever regenerated on
//! purpose, from an engine whose accounting is known good.

use oodb_bench::queries;
use oodb_core::config::rule_names as rn;
use oodb_exec::{ExecResult, ExecStats};
use open_oodb::prelude::*;
use open_oodb::volcano::EnumLimits;
use open_oodb::zql;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/exec_accounting.txt");

/// The audit corpus of `tests/audit.rs`, in its quick configuration.
const AUDIT_QUERIES: [(&str, &str); 4] = [
    (
        "Q1",
        r#"SELECT Newobject( e.name(), d.name() )
FROM Employee e IN Employees, Department d IN Department
WHERE d.floor() == 3 && e.age() >= 32 && e.last_raise() >= Date(1992,1,1)
  && e.dept() == d ;"#,
    ),
    (
        "Q2",
        r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
    ),
    (
        "Q3",
        r#"SELECT Newobject(c.mayor().age(), c.name())
FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
    ),
    (
        "Q4",
        r#"SELECT t FROM Task t IN Tasks
WHERE t.time() == 100
  && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred")"#,
    ),
];

fn trace_rows(t: &OpTrace, out: &mut Vec<u64>) {
    out.push(t.actual_rows);
    for c in &t.children {
        trace_rows(c, out);
    }
}

/// One golden line for one plan: untraced stats plus traced actuals.
fn line(label: &str, store: &Store, env: &QueryEnv, plan: &PhysicalPlan) -> String {
    let (result, s) = try_execute(store, env, plan, RunLimits::default()).expect("execute");
    let (traced, ts, trace) =
        try_execute_traced(store, env, plan, RunLimits::default()).expect("traced execute");
    assert_eq!(traced, result, "{label}: traced result differs");
    assert_eq!(
        (ts.buffer_hits, ts.buffer_misses, ts.disk.total_s.to_bits()),
        (s.buffer_hits, s.buffer_misses, s.disk.total_s.to_bits()),
        "{label}: traced I/O differs from untraced"
    );
    let mut rows = Vec::new();
    trace_rows(&trace, &mut rows);
    let ExecStats { counts: c, .. } = s;
    format!(
        "{label} hits={} misses={} disk_s={:016x} tuples={} preds={} hash_ops={} derefs={} \
         leaf={} root={} trace={rows:?}",
        s.buffer_hits,
        s.buffer_misses,
        s.disk.total_s.to_bits(),
        c.tuples,
        c.preds,
        c.hash_ops,
        c.derefs,
        s.leaf_rows,
        s.root_rows,
    )
}

fn audit_lines(out: &mut String) {
    let (store, model) = generate_paper_db(GenConfig {
        scale_div: 200,
        ..Default::default()
    });
    let limits = EnumLimits {
        max_groups: 128,
        max_exprs: 1024,
        max_plans: 2_000,
    };
    for (name, src) in AUDIT_QUERIES {
        let q = zql::compile(src, &model.schema, &model.catalog).expect("compiles");
        let report = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
            .audit(&q.plan, q.result_vars, None, limits)
            .expect("feasible plan");
        assert!(!report.truncated, "{name}: audit space truncated");
        for (i, plan) in report.plans.iter().enumerate() {
            writeln!(
                out,
                "{}",
                line(&format!("audit {name} #{i}"), &store, &q.env, plan)
            )
            .unwrap();
        }
    }
}

fn validation_lines(out: &mut String) {
    let (store, model) = generate_paper_db(GenConfig {
        scale_div: 10,
        ..Default::default()
    });
    type MakeQuery = fn(&open_oodb::object::paper::PaperModel) -> queries::PaperQuery;
    type Case = (
        &'static str,
        MakeQuery,
        Vec<(&'static str, OptimizerConfig)>,
    );
    let cases: [Case; 4] = [
        (
            "Q1",
            queries::query1,
            vec![
                ("optimal", OptimizerConfig::all_rules()),
                ("no-commute", OptimizerConfig::without_join_commutativity()),
                ("no-window", OptimizerConfig::without_window()),
            ],
        ),
        (
            "Q2",
            queries::query2,
            vec![
                ("optimal", OptimizerConfig::all_rules()),
                (
                    "naive",
                    OptimizerConfig::without(&[rn::COLLAPSE_TO_INDEX_SCAN, rn::MAT_TO_JOIN]),
                ),
            ],
        ),
        (
            "Q3",
            queries::query3,
            vec![
                ("optimal", OptimizerConfig::all_rules()),
                (
                    "no-enforcer",
                    OptimizerConfig::without(&[
                        rn::ASSEMBLY_ENFORCER,
                        rn::COLLAPSE_TO_INDEX_SCAN,
                        rn::MAT_TO_JOIN,
                    ]),
                ),
            ],
        ),
        (
            "Q4",
            queries::query4,
            vec![
                ("optimal", OptimizerConfig::all_rules()),
                (
                    "naive",
                    OptimizerConfig::without(&[
                        rn::COLLAPSE_TO_INDEX_SCAN,
                        rn::MAT_TO_JOIN,
                        rn::SELECT_SPLIT,
                    ]),
                ),
            ],
        ),
    ];
    for (name, make, configs) in cases {
        for (cfg_label, config) in configs {
            let q = make(&model);
            let plan = OpenOodb::with_config(&q.env, config)
                .optimize(&q.plan, q.result_vars)
                .expect("plan")
                .plan;
            let label = format!("validation {name} {cfg_label}");
            writeln!(out, "{}", line(&label, &store, &q.env, &plan)).unwrap();
            // The 4-worker morsel replay is byte-identical to the serial
            // run, with identical accounting.
            let (serial, s) =
                try_execute(&store, &q.env, &plan, RunLimits::default()).expect("execute");
            let mut par = Executor::new(&store, &q.env);
            par.set_limits(RunLimits {
                workers: 4,
                ..Default::default()
            });
            let parallel: ExecResult = par.try_run(&plan).expect("morsel execute");
            assert_eq!(parallel, serial, "{label}: morsel run diverged");
            let p = par.stats();
            assert_eq!(p.counts, s.counts, "{label}: morsel counts diverged");
            assert_eq!(
                (p.buffer_hits, p.buffer_misses, p.disk.total_s.to_bits()),
                (s.buffer_hits, s.buffer_misses, s.disk.total_s.to_bits()),
                "{label}: morsel I/O diverged"
            );
        }
    }
}

#[test]
fn exec_accounting_matches_golden() {
    let mut actual = String::new();
    audit_lines(&mut actual);
    validation_lines(&mut actual);
    if actual != GOLDEN {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exec_accounting.actual");
        std::fs::write(&dump, &actual).expect("write actual accounting");
        let (want, got) = GOLDEN
            .lines()
            .zip(actual.lines())
            .find(|(w, g)| w != g)
            .unwrap_or(("<end of golden>", "<end of actual>"));
        panic!(
            "executor accounting moved ({} golden lines, {} actual); first difference:\n  \
             golden: {want}\n  actual: {got}\nfull rendering: {}",
            GOLDEN.lines().count(),
            actual.lines().count(),
            dump.display()
        );
    }
}
