//! The SQL and DataFrame interfaces (§3): register tables, create the trie
//! index, and run search/join through the extended SQL.
//!
//! ```bash
//! cargo run --release --example sql_analytics
//! ```

use dita::cluster::{Cluster, ClusterConfig};
use dita::core::DitaConfig;
use dita::datagen::{beijing_like, sample_queries};
use dita::distance::DistanceFunction;
use dita::sql::{Engine, QueryResult};

fn main() {
    let mut engine = Engine::new(
        Cluster::new(ClusterConfig::with_workers(4)),
        DitaConfig::default(),
    );
    engine.register("taxi", beijing_like(1_500, 3)).unwrap();
    engine.register("bus", beijing_like(400, 4)).unwrap();

    run(&mut engine, "SHOW TABLES");

    // Take a real trip as the query literal.
    let q = &sample_queries(&engine.snapshot("taxi").unwrap(), 1, 1)[0];
    let literal: Vec<String> = q
        .points()
        .iter()
        .map(|p| format!("({}, {})", p.x, p.y))
        .collect();
    let search_sql = format!(
        "SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY({})) <= 0.002",
        literal.join(", ")
    );

    // EXPLAIN before and after CREATE INDEX shows the cost-based choice.
    println!(
        "\nplan without index: {}",
        engine.explain(&search_sql).unwrap()
    );
    run(&mut engine, "CREATE INDEX trie_idx ON taxi USE TRIE");
    println!(
        "plan with index:    {}",
        engine.explain(&search_sql).unwrap()
    );

    run(&mut engine, &search_sql);
    run(
        &mut engine,
        "SELECT * FROM taxi TRA-JOIN bus ON DTW(taxi, bus) <= 0.001 * 2",
    );

    // The DataFrame API is the programmatic twin of the SQL above.
    let hits = engine
        .table("taxi")
        .unwrap()
        .similarity_search(q.points(), DistanceFunction::Frechet, 0.002)
        .unwrap();
    println!("\nDataFrame Fréchet search: {} hits", hits.len());
    let pairs = engine
        .table("taxi")
        .unwrap()
        .tra_join("bus", DistanceFunction::Dtw, 0.002)
        .unwrap();
    println!("DataFrame TRA-JOIN taxi x bus: {} pairs", pairs.len());
}

fn run(engine: &mut Engine, sql: &str) {
    println!("\nsql> {sql}");
    match engine.execute(sql) {
        Ok(QueryResult::Rows(rows)) => println!("{} rows", rows.len()),
        Ok(QueryResult::SearchHits(hits)) => {
            println!("{} hits", hits.len());
            for (id, d) in hits.iter().take(5) {
                println!("  T{id}  dist = {d:.5}");
            }
        }
        Ok(QueryResult::JoinPairs(pairs)) => {
            println!("{} pairs", pairs.len());
            for (a, b, d) in pairs.iter().take(5) {
                println!("  (T{a}, T{b})  dist = {d:.5}");
            }
        }
        Ok(QueryResult::Ack(msg)) => println!("ok: {msg}"),
        Ok(QueryResult::TableNames(names)) => println!("tables: {names:?}"),
        Ok(QueryResult::Plan(plan)) => println!("plan: {plan}"),
        Err(e) => println!("error: {e}"),
    }
}
