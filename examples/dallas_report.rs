//! The paper's motivating workload: a report over employees working in a
//! Dallas plant (Query 1, Figures 5–7) — path expressions turned into
//! joins, links traversed *against* the stored pointer direction, and the
//! price of giving any of that up.
//!
//! ```sh
//! cargo run --example dallas_report
//! ```

use open_oodb::prelude::*;

fn main() {
    let (store, model) = generate_paper_db(GenConfig {
        scale_div: 10,
        ..Default::default()
    });

    // Query 1 through the ZQL front end.
    let src = r#"SELECT Newobject(e.name(), e.job().name(), e.dept().name())
FROM Employee e IN Employees
WHERE e.dept().plant().location() == "Dallas""#;
    println!("ZQL:\n{src}\n");

    let configs = [
        ("All rules", OptimizerConfig::all_rules()),
        (
            "Without join commutativity (naive pointer chasing)",
            OptimizerConfig::without_join_commutativity(),
        ),
        (
            "Naive, assembly window = 1",
            OptimizerConfig::without_window(),
        ),
    ];

    let mut costs = Vec::new();
    for (label, config) in configs {
        // Each optimization run gets a fresh environment (scope/predicate
        // arenas are per-query).
        let q = open_oodb::zql::compile(src, &model.schema, &model.catalog).expect("compiles");
        let optimizer = OpenOodb::with_config(&q.env, config);
        let out = optimizer
            .optimize(&q.plan, q.result_vars)
            .expect("feasible plan");
        println!("=== {label} — estimated {:.2} s ===", out.cost.total());
        println!("{}", render_physical(&q.env, &out.plan));

        let (result, stats) =
            try_execute(&store, &q.env, &out.plan, RunLimits::default()).expect("execute");
        println!(
            "executed: {} rows, {} simulated pages, {:.2} s simulated I/O, \
             {} buffer hits\n",
            result.len(),
            stats.disk.pages(),
            stats.disk.total_s,
            stats.buffer_hits,
        );
        costs.push((label, out.cost.total()));
    }

    println!("Cost ladder (paper: 161 → 681 → 1188 s at full scale):");
    for (label, c) in &costs {
        println!("  {c:>8.2} s  {label}");
    }
    println!(
        "\nThe winning plan scans the small Department extent, assembles only\n\
         its Plant components, and hash-joins *backwards* into Employees —\n\
         \"traversing single-directional inter-object links in their opposite\n\
         (not pre-computed) direction\"."
    );
}
