//! The engine's write path against a model.
//!
//! A table has one store: the rows it was registered with, or — once it is
//! indexed — the index. Nothing is kept in step with anything, so the only
//! way to know the store is right is to hold it against a model: a few
//! hundred seeded upserts, overwrites, deletes of present and absent ids,
//! flushes and compactions, on a table indexed from the start and on one
//! indexed half-way through, checked after every step against a
//! `BTreeMap<TrajectoryId, Vec<Point>>`.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::DitaConfig;
use dita_index::{PivotStrategy, TrieConfig};
use dita_sql::{Engine, QueryResult};
use dita_trajectory::{Dataset, Point, Trajectory, TrajectoryId};
use std::collections::BTreeMap;

type Model = BTreeMap<TrajectoryId, Vec<Point>>;

const TABLE: &str = "t";
/// Ids are drawn from a range this small so that overwrites and deletes of
/// present ids are as common as fresh inserts.
const IDS: u64 = 48;

struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A walk of 1–9 points in [0, 8]².
    fn points(&mut self) -> Vec<Point> {
        let (mut x, mut y) = (self.next_f64() * 8.0, self.next_f64() * 8.0);
        (0..1 + self.below(9))
            .map(|_| {
                x += (self.next_f64() - 0.5) * 0.5;
                y += (self.next_f64() - 0.5) * 0.5;
                Point::new(x, y)
            })
            .collect()
    }
}

/// An engine whose table holds `model`, indexed or not.
fn engine_of(model: &Model, indexed: bool) -> Engine {
    let mut engine = Engine::new(
        Cluster::new(ClusterConfig::with_workers(2)),
        DitaConfig {
            ng: 3,
            trie: TrieConfig {
                k: 2,
                nl: 2,
                leaf_capacity: 3,
                strategy: PivotStrategy::NeighborDistance,
                cell_side: 1.5,
                ..TrieConfig::default()
            },
        },
    );
    let rows = model
        .iter()
        .map(|(&id, pts)| Trajectory::new(id, pts.clone()))
        .collect();
    engine
        .register(
            TABLE,
            Dataset::new("model", rows).expect("a model is a valid dataset"),
        )
        .expect("fresh catalog");
    if indexed {
        engine.ensure_index(TABLE).expect("registered above");
    }
    engine
}

fn dtw_search(engine: &mut Engine, query: &[Point], tau: f64) -> Vec<(TrajectoryId, u64)> {
    let literal: Vec<String> = query
        .iter()
        .map(|p| format!("({}, {})", p.x, p.y))
        .collect();
    let sql = format!(
        "SELECT * FROM {TABLE} WHERE DTW({TABLE}, TRAJECTORY({})) <= {tau}",
        literal.join(", ")
    );
    match engine.execute(&sql).expect("a well-formed search") {
        QueryResult::SearchHits(hits) => {
            hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
        }
        other => panic!("{other:?}"),
    }
}

/// Every reader of the table agrees with the model. Returns how many hits
/// the searches compared.
fn assert_matches_model(
    engine: &mut Engine,
    model: &Model,
    rng: &mut XorShift,
    step: usize,
) -> usize {
    let snapshot = engine.snapshot(TABLE).expect("registered");
    let want: Vec<Trajectory> = model
        .iter()
        .map(|(&id, pts)| Trajectory::new(id, pts.clone()))
        .collect();
    assert_eq!(snapshot.trajectories(), want, "step {step}: snapshot");
    match engine.execute(&format!("SELECT * FROM {TABLE}")).unwrap() {
        QueryResult::Rows(rows) => {
            assert_eq!(rows, snapshot.trajectories(), "step {step}: SELECT *")
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(engine.row_count(TABLE).unwrap(), model.len(), "step {step}");

    // A search answers as it does on an engine freshly built from the
    // model — planned the same way, so the same kernel computes the
    // distances and their bits can be compared.
    let indexed = engine.is_indexed(TABLE);
    let mut fresh = engine_of(model, indexed);
    let near = model
        .values()
        .nth(rng.below(model.len().max(1) as u64) as usize);
    let mut hits = 0;
    for (query, tau) in [
        (near.cloned().unwrap_or_else(|| rng.points()), 1.5),
        (rng.points(), 4.0),
    ] {
        let got = dtw_search(engine, &query, tau);
        assert_eq!(
            got,
            dtw_search(&mut fresh, &query, tau),
            "step {step}: DTW search, indexed: {indexed}"
        );
        hits += got.len();
    }
    hits
}

fn run(seed: u64, steps: usize, index_at: usize) {
    let mut rng = XorShift(seed);
    let mut model: Model = (0..IDS / 2).map(|id| (id, rng.points())).collect();
    let mut engine = engine_of(&model, index_at == 0);
    let mut hits = assert_matches_model(&mut engine, &model, &mut rng, 0);
    let mut deleted = [0usize; 2];
    for step in 1..=steps {
        if step == index_at {
            engine.ensure_index(TABLE).unwrap();
        }
        match rng.below(10) {
            // A batch of upserts: fresh ids, overwrites, and now and then
            // the same id twice in one batch (the later row wins).
            0..=4 => {
                let mut batch: Vec<(TrajectoryId, Vec<Point>)> = (0..1 + rng.below(3))
                    .map(|_| (rng.below(IDS), rng.points()))
                    .collect();
                if rng.below(4) == 0 {
                    batch.push((batch[0].0, rng.points()));
                }
                let n = engine.insert_rows(TABLE, batch.clone()).unwrap();
                assert_eq!(n, batch.len());
                model.extend(batch);
            }
            // A delete, of a present id about half the time.
            5..=7 => {
                let id = rng.below(IDS);
                let was_there = model.remove(&id).is_some();
                assert_eq!(
                    engine.delete_row(TABLE, id).unwrap(),
                    was_there,
                    "step {step}: delete of id {id}"
                );
                deleted[usize::from(was_there)] += 1;
            }
            8 => engine.flush(TABLE).unwrap(),
            _ => {
                engine.compact(TABLE).unwrap();
            }
        }
        hits += assert_matches_model(&mut engine, &model, &mut rng, step);
    }
    assert!(engine.is_indexed(TABLE));
    assert!(hits > steps, "the searches found rows to compare: {hits}");
    assert!(
        deleted[0] > 10 && deleted[1] > 10,
        "deletes of absent and present ids both happened: {deleted:?}"
    );
}

#[test]
fn an_indexed_table_follows_the_model() {
    run(0x5eed_2301, 300, 0);
}

#[test]
fn a_table_indexed_half_way_through_follows_the_model() {
    run(0x5eed_2302, 300, 150);
}
