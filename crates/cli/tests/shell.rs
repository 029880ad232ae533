//! End-user test: drive the `oodb` shell binary through a pipe, the way a
//! person would, and check the full stack answers.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn run_shell(input: &str) -> String {
    run_shell_with(&["--scale", "100"], input)
}

fn run_shell_with(args: &[&str], input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_oodb"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("shell starts");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("shell exits");
    assert!(out.status.success(), "shell exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn queries_execute_and_explain() {
    let out = run_shell(
        r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe";
EXPLAIN SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\q
"#,
    );
    assert!(out.contains("rows;"), "execution summary expected:\n{out}");
    assert!(
        out.contains("Optimal plan"),
        "EXPLAIN output expected:\n{out}"
    );
    assert!(out.contains("Logical algebra:"), "{out}");
}

#[test]
fn order_by_answers_print_in_plan_order() {
    let out = run_shell(
        r#"SELECT Newobject(c.name(), c.population()) FROM City c IN Cities
WHERE c.population() >= 1000 ORDER BY c.population();
\q
"#,
    );
    // Rows print as `"city-N" | POPULATION` (the first after the prompt);
    // the shell shows the first 20.
    let pops: Vec<i64> = out
        .lines()
        .filter(|l| l.contains("\"city-"))
        .map(|l| l.rsplit(" | ").next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(pops.len(), 20, "{out}");
    assert!(
        pops.windows(2).all(|w| w[0] <= w[1]),
        "rows must follow ORDER BY population, not text order:\n{out}"
    );
}

#[test]
fn rule_toggles_change_plans() {
    let out = run_shell(
        r#"\rules off collapse-to-index-scan
\rules off mat-to-join
EXPLAIN SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe";
\rules reset
EXPLAIN SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe";
\q
"#,
    );
    assert!(out.contains("disabled collapse-to-index-scan"), "{out}");
    // First EXPLAIN (rules off) must assemble; second must use the index.
    let first = out.find("Assembly").expect("naive plan assembles");
    let second = out.rfind("Index Scan").expect("reset plan uses index");
    assert!(first < second, "order of plans:\n{out}");
}

#[test]
fn catalog_and_error_reporting() {
    let out = run_shell(
        r#"\catalog
SELECT x FROM x IN Nowhere;
SELECT c FROM c IN Cities WHERE c.name() == 3;
\q
"#,
    );
    assert!(out.contains("Employees"), "{out}");
    assert!(out.contains("unknown collection"), "{out}");
    assert!(
        out.contains("incomparable") || out.contains("cannot compare"),
        "{out}"
    );
}

#[test]
fn stats_collection_reports() {
    let out = run_shell("\\stats\n\\q\n");
    assert!(
        out.contains("histograms; selectivity estimation refined"),
        "{out}"
    );
}

/// A fresh scratch directory under the test target's tmp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("shell-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The stats epoch the first `(stats epoch N` in the output names.
fn first_stats_epoch(out: &str) -> u64 {
    let rest = out
        .split("(stats epoch ")
        .nth(1)
        .unwrap_or_else(|| panic!("no stats epoch in:\n{out}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("epoch number")
}

#[test]
fn stats_refresh_reaches_the_store_with_or_without_durability() {
    let dir = scratch_dir("stats");
    let snapshot = dir.join("p");
    // The refreshed catalog must be the one a snapshot saves: after a
    // \save / \open round trip the histograms are still there.
    let out = run_shell(&format!(
        "\\stats\n\\save {p}\n\\open {p}\n\\catalog\n\\q\n",
        p = snapshot.display()
    ));
    assert!(out.contains("histograms collected: 3"), "{out}");
    let plain_epoch = first_stats_epoch(&out);
    let opened = out.split("opened ").nth(1).expect("\\open output");
    assert_eq!(first_stats_epoch(opened), plain_epoch, "{out}");
    // With durability on, \stats is logged and then applied by the same
    // composite, so it must land on the same epoch.
    let durable = run_shell(&format!(
        "\\durability on {}\n\\stats\n\\q\n",
        dir.join("wal").display()
    ));
    assert!(durable.contains("durability on: checkpointed"), "{durable}");
    assert_eq!(first_stats_epoch(&durable), plain_epoch, "{durable}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_analyze_annotates_operators() {
    let out = run_shell(
        r#"EXPLAIN ANALYZE SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
explain analyze SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\q
"#,
    );
    assert!(out.contains("Physical plan (analyzed):"), "{out}");
    assert!(
        out.contains("actual rows="),
        "per-operator annotations expected:\n{out}"
    );
    assert!(out.contains("buf hit/miss="), "{out}");
    assert!(out.contains("rows in "), "summary line expected:\n{out}");
    assert!(
        out.contains("[plan cache hit]"),
        "second analyze should hit the plan cache:\n{out}"
    );
}

#[test]
fn metrics_dump_is_prometheus_text() {
    let out = run_shell(
        r#"\profile on
SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\metrics
\profile off
\q
"#,
    );
    assert!(out.contains("profiling on"), "{out}");
    assert!(
        out.contains("# TYPE oodb_submissions_total counter"),
        "{out}"
    );
    assert!(out.contains("oodb_submissions_total 1"), "{out}");
    assert!(
        out.contains(r#"oodb_stage_latency_ns_count{stage="execute"} 1"#),
        "{out}"
    );
    // Histograms must expose their `_sum` series alongside `_count` —
    // without it a scraper cannot compute average latency.
    assert!(
        out.contains(r#"oodb_stage_latency_ns_sum{stage="execute"}"#),
        "histogram _sum series expected:\n{out}"
    );
    // Every exposition line is either a comment or `name{labels} value`.
    let dump_start = out.find("# TYPE").expect("exposition present");
    for line in out[dump_start..].lines() {
        if line.starts_with('#') || line.is_empty() || !line.contains("oodb_") {
            continue;
        }
        if line.starts_with("oodb_") {
            let mut halves = line.rsplitn(2, ' ');
            let value = halves.next().expect("value column");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparsable sample value in {line:?}"
            );
        }
    }
}

#[test]
fn mem_governor_toggles_spills_and_reports() {
    let out = run_shell(
        r#"\mem stats
\mem on 512
\rules off pointer-join
\rules off merge-join
EXPLAIN ANALYZE SELECT Newobject(e.name(), d.name()) FROM Employee e IN Employees, Department d IN Department WHERE e.dept() == d;
\mem stats
\mem off
\mem stats
\q
"#,
    );
    assert!(out.contains("no memory governor attached"), "{out}");
    assert!(
        out.contains("memory governor on: 512 bytes capacity"),
        "{out}"
    );
    // A 500-row hash join under a 512-byte governor must overflow: the
    // analyze summary and the governor ledger both say so.
    assert!(
        out.contains("spill pages (peak "),
        "spill summary expected:\n{out}"
    );
    assert!(out.contains("spill=") && out.contains(" pages)"), "{out}");
    assert!(
        out.contains("memory governor: 0/512 bytes reserved"),
        "{out}"
    );
    assert!(out.contains("memory governor off"), "{out}");
    let after_off = out.rfind("no memory governor attached");
    assert!(after_off > out.find("memory governor off"), "{out}");
}

#[test]
fn fault_injection_toggles_and_reports() {
    let out = run_shell(
        r#"\faults on 1.0 7
SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\faults stats
\faults off
SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\faults stats
\q
"#,
    );
    assert!(
        out.contains("fault injection on: read fault rate 1, seed 7"),
        "{out}"
    );
    // At rate 1.0 the very first page read faults, as a typed error — the
    // shell keeps running instead of panicking.
    assert!(
        out.contains("execution failed") && out.contains("storage fault"),
        "fault should surface as a printed error:\n{out}"
    );
    assert!(out.contains("fault injector enabled"), "{out}");
    assert!(out.contains("fault injection off"), "{out}");
    // After detaching, the same query runs to completion.
    assert!(
        out.contains("rows;"),
        "query should succeed once off:\n{out}"
    );
    assert!(out.contains("no fault injector attached"), "{out}");
}

#[test]
fn feedback_ladder_runs_end_to_end_in_the_shell() {
    // `--hot-names 0.5` skews Employees so half share one name while the
    // catalog still claims ~1% — the hot-key query drifts ~50x. Four
    // plain executions walk the full ladder: detect → evict → probe →
    // re-optimize, with no EXPLAIN ANALYZE anywhere.
    let out = run_shell_with(
        &["--scale", "100", "--hot-names", "0.5"],
        r#"SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred";
SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred";
SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred";
SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred";
\feedback stats
EXPLAIN FEEDBACK SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred";
\feedback clear
\feedback stats
\q
"#,
    );
    assert!(
        out.contains("note: estimate drift"),
        "untraced drift note expected:\n{out}"
    );
    // The note follows the ladder: the detecting run and the probe run
    // print it; the overlay-corrected runs after them do not.
    assert_eq!(out.matches("note: estimate drift").count(), 2, "{out}");
    assert!(out.contains("SUSPECT"), "suspect marker expected:\n{out}");
    assert!(
        out.contains("override(s)"),
        "probe should have recorded overrides:\n{out}"
    );
    assert!(
        out.contains("-> corrected"),
        "EXPLAIN FEEDBACK should show corrected selectivities:\n{out}"
    );
    assert!(out.contains("feedback cleared"), "{out}");
    // After the clear, the stats line reports an empty store.
    assert!(
        out.rfind("0 fingerprints tracked").is_some(),
        "cleared store expected:\n{out}"
    );
}

#[test]
fn profile_off_skips_histograms() {
    let out = run_shell(
        r#"SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\metrics
\q
"#,
    );
    // Counters are always live; histograms need \profile on.
    assert!(out.contains("oodb_submissions_total 1"), "{out}");
    assert!(
        !out.contains(r#"oodb_stage_latency_ns_count{stage="execute"} 1"#),
        "histogram should not record with profiling off:\n{out}"
    );
}
