//! SQL front-end over generated data: parsing, planning, index DDL and
//! result equivalence between physical operators.

use dita::cluster::{Cluster, ClusterConfig};
use dita::core::DitaConfig;
use dita::datagen::{beijing_like, sample_queries};
use dita::distance::DistanceFunction;
use dita::index::{PivotStrategy, TrieConfig};
use dita::sql::{Engine, QueryResult};

fn engine_with(n: usize) -> Engine {
    let mut e = Engine::new(
        Cluster::new(ClusterConfig::with_workers(3)),
        DitaConfig {
            ng: 4,
            trie: TrieConfig {
                k: 3,
                nl: 4,
                leaf_capacity: 4,
                strategy: PivotStrategy::NeighborDistance,
                cell_side: 0.002,
                ..TrieConfig::default()
            },
        },
    );
    e.register("trips", beijing_like(n, 8)).unwrap();
    e
}

fn literal_for(points: &[dita::trajectory::Point]) -> String {
    let coords: Vec<String> = points
        .iter()
        .map(|p| format!("({},{})", p.x, p.y))
        .collect();
    format!("TRAJECTORY({})", coords.join(","))
}

#[test]
fn scan_and_index_plans_agree_on_real_data() {
    let mut e = engine_with(300);
    let q = sample_queries(&e.snapshot("trips").unwrap(), 1, 2)[0].clone();
    let sql = format!(
        "SELECT * FROM trips WHERE DTW(trips, {}) <= 0.003",
        literal_for(q.points())
    );

    let scan_hits = match e.execute(&sql).unwrap() {
        QueryResult::SearchHits(h) => h,
        other => panic!("{other:?}"),
    };
    assert!(e.explain(&sql).unwrap().contains("ScanSearch"));

    e.execute("CREATE INDEX idx ON trips USE TRIE").unwrap();
    assert!(e.explain(&sql).unwrap().contains("IndexSearch"));
    let index_hits = match e.execute(&sql).unwrap() {
        QueryResult::SearchHits(h) => h,
        other => panic!("{other:?}"),
    };
    assert_eq!(scan_hits, index_hits);
    assert!(!index_hits.is_empty(), "the query trip matches itself");
}

/// `DataFrame::create_trie_index` is `CREATE INDEX … USE TRIE`: after it
/// the planner picks the index, and the DataFrame's search answers as the
/// SQL scan did.
#[test]
fn dataframe_create_trie_index_equals_create_index() {
    let mut e = engine_with(300);
    let q = sample_queries(&e.snapshot("trips").unwrap(), 1, 2)[0].clone();
    let sql = format!(
        "SELECT * FROM trips WHERE DTW(trips, {}) <= 0.003",
        literal_for(q.points())
    );
    let mut scan_hits = match e.execute(&sql).unwrap() {
        QueryResult::SearchHits(h) => h,
        other => panic!("{other:?}"),
    };
    assert!(!e.is_indexed("trips"));

    let mut df = e.table("trips").unwrap();
    df.create_trie_index().unwrap();
    let mut df_hits = df
        .similarity_search(q.points(), DistanceFunction::Dtw, 0.003)
        .unwrap();
    assert!(e.is_indexed("trips"));
    assert!(e.explain(&sql).unwrap().contains("IndexSearch"));
    scan_hits.sort_by_key(|&(id, _)| id);
    df_hits.sort_by_key(|&(id, _)| id);
    assert_eq!(scan_hits, df_hits);
    assert!(!df_hits.is_empty(), "the query trip matches itself");
}

#[test]
fn sql_join_equals_dataframe_join() {
    let mut e = engine_with(200);
    e.register("trips2", beijing_like(200, 8)).unwrap();

    let sql_pairs = match e
        .execute("SELECT * FROM trips TRA-JOIN trips2 ON DTW(trips, trips2) <= 0.002")
        .unwrap()
    {
        QueryResult::JoinPairs(p) => p,
        other => panic!("{other:?}"),
    };
    let df_pairs = e
        .table("trips")
        .unwrap()
        .tra_join("trips2", DistanceFunction::Dtw, 0.002)
        .unwrap();
    assert_eq!(sql_pairs, df_pairs);
    // Identical seeds → every trip matches its twin.
    assert!(sql_pairs.len() >= 200);
}

#[test]
fn every_distance_function_usable_from_sql() {
    let mut e = engine_with(150);
    e.execute("CREATE INDEX idx ON trips USE TRIE").unwrap();
    let q = sample_queries(&e.snapshot("trips").unwrap(), 1, 6)[0].clone();
    let lit = literal_for(q.points());
    for (func, tau) in [
        ("DTW", "0.003"),
        ("FRECHET", "0.002"),
        ("EDR", "5.0"),
        ("LCSS", "5.0"),
        ("ERP", "1000.0"),
    ] {
        let sql = format!("SELECT * FROM trips WHERE {func}(trips, {lit}) <= {tau}");
        match e.execute(&sql) {
            Ok(QueryResult::SearchHits(hits)) => {
                assert!(
                    hits.iter().any(|&(id, _)| id == q.id),
                    "{func}: query trip must match itself"
                );
            }
            other => panic!("{func}: {other:?}"),
        }
    }
}

#[test]
fn sql_dml_round_trips_through_the_index() {
    let mut e = engine_with(200);
    e.execute("CREATE INDEX idx ON trips USE TRIE").unwrap();

    // INSERT a trajectory far outside the Beijing-like extent; it must be
    // visible to an indexed search immediately (delta overlay or compaction).
    e.execute("INSERT INTO trips VALUES (900001, TRAJECTORY((95.0, 12.0), (95.001, 12.001)))")
        .unwrap();
    let probe = "SELECT * FROM trips WHERE DTW(trips, \
                 TRAJECTORY((95.0, 12.0), (95.001, 12.001))) <= 0.0001";
    match e.execute(probe).unwrap() {
        QueryResult::SearchHits(hits) => {
            assert_eq!(
                hits.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                vec![900001]
            );
        }
        other => panic!("{other:?}"),
    }

    // DELETE it again: both the index and the scan path must forget it.
    match e.execute("DELETE FROM trips WHERE id = 900001").unwrap() {
        QueryResult::Ack(msg) => assert!(msg.contains("deleted id 900001"), "{msg}"),
        other => panic!("{other:?}"),
    }
    match e.execute(probe).unwrap() {
        QueryResult::SearchHits(hits) => assert!(hits.is_empty()),
        other => panic!("{other:?}"),
    }
    assert_eq!(e.row_count("trips").unwrap(), 200);

    // DELETE an original trip and check a self-match query no longer returns it.
    let q = sample_queries(&e.snapshot("trips").unwrap(), 1, 4)[0].clone();
    let self_probe = format!(
        "SELECT * FROM trips WHERE DTW(trips, {}) <= 0.003",
        literal_for(q.points())
    );
    match e.execute(&self_probe).unwrap() {
        QueryResult::SearchHits(hits) => assert!(hits.iter().any(|&(id, _)| id == q.id)),
        other => panic!("{other:?}"),
    }
    e.execute(&format!("DELETE FROM trips WHERE id = {}", q.id))
        .unwrap();
    match e.execute(&self_probe).unwrap() {
        QueryResult::SearchHits(hits) => {
            assert!(hits.iter().all(|&(id, _)| id != q.id));
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(e.row_count("trips").unwrap(), 199);
}

#[test]
fn threshold_expressions_fold() {
    let mut e = engine_with(100);
    let q = sample_queries(&e.snapshot("trips").unwrap(), 1, 6)[0].clone();
    let lit = literal_for(q.points());
    let a = match e
        .execute(&format!(
            "SELECT * FROM trips WHERE DTW(trips, {lit}) <= 0.003"
        ))
        .unwrap()
    {
        QueryResult::SearchHits(h) => h,
        other => panic!("{other:?}"),
    };
    let b = match e
        .execute(&format!(
            "SELECT * FROM trips WHERE DTW(trips, {lit}) <= 0.001 * 2 + 0.001"
        ))
        .unwrap()
    {
        QueryResult::SearchHits(h) => h,
        other => panic!("{other:?}"),
    };
    assert_eq!(a, b);
}
