//! Dynamic plan selection — ObjectStore's party trick (paper §2) done
//! cost-based: compile a query ONCE into one plan per useful index
//! configuration, then pick at run time according to whichever indexes
//! actually exist. Users "add and delete indices without having to
//! recompile their applications" — but unlike ObjectStore, every
//! alternative here came out of the exhaustive cost-based optimizer.
//!
//! ```sh
//! cargo run --example dynamic_plans
//! ```

use open_oodb::core::{compile_dynamic, CostParams};
use open_oodb::prelude::*;
use std::collections::HashSet;

fn main() {
    // Optimize against the full-scale Table 1 catalog (where the index
    // alternatives genuinely differ); execute on a 1/10-scale store — the
    // ids line up because both come from the same construction order.
    let (store, _) = generate_paper_db(GenConfig {
        scale_div: 10,
        ..Default::default()
    });
    let model = paper_model();

    // The paper's Query 4.
    let src = r#"SELECT t FROM Task t IN Tasks
WHERE t.time() == 100
  && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred")"#;
    let q = open_oodb::zql::compile(src, &model.schema, &model.catalog).unwrap();

    println!("Compiling once over every index subset...");
    let dynamic = compile_dynamic(
        &q.env,
        CostParams::default(),
        &OptimizerConfig::all_rules(),
        &q.plan,
        q.result_vars,
    );
    println!(
        "{} distinct alternatives compiled:\n",
        dynamic.alternatives.len()
    );
    for alt in &dynamic.alternatives {
        println!(
            "-- requires {:?} (estimated {:.2} s):",
            alt.requires,
            alt.cost.total()
        );
        println!("{}", render_physical(&q.env, &alt.plan));
    }

    // "Run time": the DBA drops indexes one by one; selection adapts with
    // zero recompilation. Execute each selected plan to prove it runs.
    let scenarios: [(&str, &[&str]); 3] = [
        (
            "all indexes present",
            &["Tasks_time", "Employees_name", "Cities_mayor_name"],
        ),
        (
            "time index dropped",
            &["Employees_name", "Cities_mayor_name"],
        ),
        ("no indexes at all", &[]),
    ];
    for (label, names) in scenarios {
        let available: HashSet<String> = names.iter().map(|s| s.to_string()).collect();
        let chosen = dynamic.select(&available);
        let (result, stats) =
            try_execute(&store, &q.env, &chosen.plan, RunLimits::default()).expect("execute");
        println!(
            "{label}: plan requiring {:?} -> {} rows, {:.3} s simulated I/O",
            chosen.requires,
            result.len(),
            stats.disk.total_s
        );
    }
}
