//! Quickstart: compile a ZQL query, optimize it, run it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use open_oodb::prelude::*;

fn main() {
    // 1. The paper's schema and Table 1 catalog, plus a generated database
    //    (1/10 scale keeps this example snappy).
    let (store, model) = generate_paper_db(GenConfig {
        scale_div: 10,
        ..Default::default()
    });

    // 2. Compile a ZQL[C++]-style query: the paper's Query 2.
    let src = r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#;
    let q = open_oodb::zql::compile(src, &model.schema, &model.catalog).expect("query compiles");
    println!("ZQL:\n  {src}\n");
    println!("Simplified logical algebra (paper Figure 8):");
    println!("{}", render_logical(&q.env, &q.plan));

    // 3. Optimize. The collapse-to-index-scan rule folds the whole
    //    select–materialize–get chain into one path-index scan.
    let optimizer = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules());
    let out = optimizer
        .optimize(&q.plan, q.result_vars)
        .expect("feasible plan");
    println!(
        "Optimal physical plan (estimated {:.3} s):",
        out.cost.total()
    );
    println!("{}", render_physical(&q.env, &out.plan));
    println!(
        "Search: {} groups, {} expressions, optimized in {:?}",
        out.stats.groups, out.stats.exprs, out.stats.elapsed
    );

    // 4. Execute against the simulated store.
    let (result, stats) =
        try_execute(&store, &q.env, &out.plan, RunLimits::default()).expect("execute");
    println!(
        "\nExecuted: {} matching cities, {} simulated pages read \
         ({:.3} s of simulated I/O)",
        result.len(),
        stats.disk.pages(),
        stats.disk.total_s
    );
    let c = q
        .env
        .scopes
        .iter()
        .find(|(_, v)| v.name == "c")
        .map(|(id, _)| id)
        .unwrap();
    for t in result.tuples().iter().take(5) {
        let city = t.get(c);
        let name = store.read_field(city, model.ids.city_name);
        let mayor = store
            .read_field(city, model.ids.city_mayor)
            .as_ref_oid()
            .unwrap();
        let mayor_name = store.read_field(mayor, model.ids.person_name);
        println!("  {name} (mayor {mayor_name})");
    }
}
