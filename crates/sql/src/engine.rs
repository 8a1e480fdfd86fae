//! The query engine: catalog + plan execution.

use crate::error::SqlError;
use crate::parser::parse;
use crate::plan::{logical_plan, physical_plan, PhysicalPlan};
use dita_cluster::Cluster;
use dita_core::{join, knn_search, search_batch, DitaConfig, DitaSystem, JoinOptions};
use dita_distance::DistanceFunction;
use dita_trajectory::{Dataset, Point, Trajectory, TrajectoryId};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The result of executing a statement.
#[derive(Debug)]
pub enum QueryResult {
    /// Full-scan rows.
    Rows(Vec<Trajectory>),
    /// Similarity search hits `(id, distance)`.
    SearchHits(Vec<(TrajectoryId, f64)>),
    /// Similarity join pairs `(left id, right id, distance)`.
    JoinPairs(Vec<(TrajectoryId, TrajectoryId, f64)>),
    /// DDL acknowledgement.
    Ack(String),
    /// `SHOW TABLES` output.
    TableNames(Vec<String>),
    /// `EXPLAIN` output: the physical plan description.
    Plan(String),
}

/// A table's one store: the rows it was registered with until an index is
/// built over them, the index from then on. The trie index is clustered
/// (§4.2.3) — the trajectories live in it — so an index with a second copy
/// of the rows beside it is not something this type can hold.
// A catalog has a handful of tables and every served one ends up `Indexed`:
// boxing the large variant would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Table {
    Rows(Dataset),
    Indexed(DitaSystem),
}

/// A SQL engine over a simulated cluster.
///
/// Tables are registered programmatically (the stand-in for Spark's data
/// sources), then queried through [`Engine::execute`] or the
/// [`crate::DataFrame`] API.
pub struct Engine {
    cluster: Cluster,
    config: DitaConfig,
    tables: BTreeMap<String, Table>,
}

impl Engine {
    /// Creates an engine; `config` governs indexes built by this engine.
    pub fn new(cluster: Cluster, config: DitaConfig) -> Self {
        Engine {
            cluster,
            config,
            tables: BTreeMap::new(),
        }
    }

    /// Attaches an observability context: indexes this engine has built
    /// (and every index it builds from now on) record executor metrics and
    /// operator spans into it. `dita-server` attaches its context here so
    /// service-side spans parent over operator spans.
    pub fn attach_obs(&mut self, obs: dita_obs::Obs) {
        self.cluster.attach_obs(obs.clone());
        for sys in self.systems_mut() {
            sys.attach_obs(obs.clone());
        }
    }

    /// Registers a dataset as a table.
    pub fn register(&mut self, name: &str, dataset: Dataset) -> Result<(), SqlError> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(SqlError::DuplicateTable { name: name.into() });
        }
        self.tables.insert(key, Table::Rows(dataset));
        Ok(())
    }

    /// Registered table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Whether a table currently has a trie index.
    pub fn is_indexed(&self, name: &str) -> bool {
        self.system(name).is_some()
    }

    /// The trie-indexed system of a table, if one has been built.
    pub fn system(&self, name: &str) -> Option<&DitaSystem> {
        match self.entry(name) {
            Ok(Table::Indexed(sys)) => Some(sys),
            _ => None,
        }
    }

    /// The number of rows in a table.
    pub fn row_count(&self, name: &str) -> Result<usize, SqlError> {
        Ok(match self.entry(name)? {
            Table::Rows(dataset) => dataset.len(),
            Table::Indexed(sys) => sys.len(),
        })
    }

    /// A copy of a table's rows as they stand: an unindexed table's as it
    /// keeps them, an indexed table's live rows (base minus tombstones plus
    /// deltas) read out of the index in id order.
    pub fn snapshot(&self, name: &str) -> Result<Dataset, SqlError> {
        Ok(match self.entry(name)? {
            Table::Rows(dataset) => dataset.clone(),
            Table::Indexed(sys) => Dataset::new_unchecked(sys.name(), sys.live_trajectories()),
        })
    }

    fn entry(&self, name: &str) -> Result<&Table, SqlError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| SqlError::UnknownTable { name: name.into() })
    }

    fn entry_mut(&mut self, name: &str) -> Result<&mut Table, SqlError> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| SqlError::UnknownTable { name: name.into() })
    }

    fn systems_mut(&mut self) -> impl Iterator<Item = &mut DitaSystem> {
        self.tables.values_mut().filter_map(|table| match table {
            Table::Indexed(sys) => Some(sys),
            Table::Rows(_) => None,
        })
    }

    /// Builds (or reuses) the trie index of a table and returns it. The
    /// index takes the table over: the registered rows are dropped once it
    /// holds them.
    pub fn ensure_index(&mut self, name: &str) -> Result<&DitaSystem, SqlError> {
        let table = self
            .tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| SqlError::UnknownTable { name: name.into() })?;
        if let Table::Rows(dataset) = table {
            *table = Table::Indexed(DitaSystem::build(
                dataset,
                self.config,
                self.cluster.clone(),
            ));
        }
        match table {
            Table::Indexed(sys) => Ok(sys),
            Table::Rows(_) => unreachable!("indexed above"),
        }
    }

    /// Returns the EXPLAIN string for a statement without executing it.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        Ok(self.plan(sql)?.describe())
    }

    /// Parses, plans and executes several statements in order, answering
    /// runs of compatible indexed searches with one batched cluster job.
    ///
    /// Consecutive statements that plan to
    /// [`PhysicalPlan::IndexSearch`] on the same table and distance
    /// function are executed through `dita-core`'s `search_batch` — one
    /// cluster job, one task per worker, for the whole run — instead of a
    /// job per statement. Results are identical to calling
    /// [`Engine::execute`] on each statement (pinned by test). Every
    /// statement is planned once, and only after the statements before it
    /// ran (a `CREATE INDEX` changes the plans that follow it); any other
    /// statement (or an unparsable one) closes the current run, so ordering
    /// and error positions are preserved. The first error aborts the batch.
    pub fn execute_batch(&mut self, stmts: &[&str]) -> Result<Vec<QueryResult>, SqlError> {
        let mut out = Vec::with_capacity(stmts.len());
        // The look-ahead plan (or plan error) of `stmts[i]` when it closed
        // the previous run. A run only reads, so the plan still holds.
        let mut carried: Option<Result<PhysicalPlan, SqlError>> = None;
        let mut i = 0;
        while i < stmts.len() {
            let plan = carried.take().unwrap_or_else(|| self.plan(stmts[i]))?;
            let PhysicalPlan::IndexSearch {
                table,
                func,
                query,
                tau,
            } = plan
            else {
                out.push(self.run_plan(plan)?);
                i += 1;
                continue;
            };
            // Extend the run while the following statements plan to a
            // compatible search. Searches are read-only, so planning ahead
            // under the current catalog state is sound.
            let mut queries: Vec<(Vec<Point>, f64)> = vec![(query, tau)];
            let mut j = i + 1;
            while j < stmts.len() {
                match self.plan(stmts[j]) {
                    Ok(PhysicalPlan::IndexSearch {
                        table: t2,
                        func: f2,
                        query: q2,
                        tau: tau2,
                    }) if t2 == table && f2 == func => {
                        queries.push((q2, tau2));
                        j += 1;
                    }
                    closing => {
                        carried = Some(closing);
                        break;
                    }
                }
            }
            let system = self.system(&table).expect("planner checked the index");
            let qs: Vec<&[Point]> = queries.iter().map(|(q, _)| q.as_slice()).collect();
            let taus: Vec<f64> = queries.iter().map(|&(_, tau)| tau).collect();
            let (results, _) = search_batch(system, &qs, &taus, &func);
            out.extend(results.into_iter().map(QueryResult::SearchHits));
            i = j;
        }
        Ok(out)
    }

    /// Upserts `rows` into a table (the `INSERT` write path), latest write
    /// wins: through the index's delta ingestion when the table is indexed,
    /// into the registered rows otherwise. Every row is validated before
    /// the table is touched, so a refused batch leaves it as it was.
    /// Returns the row count.
    pub fn insert_rows(
        &mut self,
        table: &str,
        rows: Vec<(TrajectoryId, Vec<Point>)>,
    ) -> Result<usize, SqlError> {
        let refuse = |message: &str| SqlError::Parse {
            message: message.into(),
        };
        for (_, pts) in &rows {
            if pts.is_empty() {
                return Err(refuse("a trajectory needs at least one point"));
            }
            if pts.iter().any(|p| !p.x.is_finite() || !p.y.is_finite()) {
                return Err(refuse("trajectory coordinates must be finite"));
            }
        }
        let n = rows.len();
        let rows = rows.into_iter().map(|(id, pts)| Trajectory::new(id, pts));
        match self.entry_mut(table)? {
            Table::Indexed(sys) => rows.for_each(|t| sys.insert(t)),
            // Unindexed rows have no other store: an O(N) pass a row.
            Table::Rows(dataset) => dataset.upsert(rows),
        }
        Ok(n)
    }

    /// Deletes one trajectory by id (the `DELETE` write path): tombstoned
    /// in the index when the table has one, removed from the registered
    /// rows otherwise. Returns whether the id was present.
    pub fn delete_row(&mut self, table: &str, id: TrajectoryId) -> Result<bool, SqlError> {
        Ok(match self.entry_mut(table)? {
            Table::Indexed(sys) => sys.delete(id),
            Table::Rows(dataset) => dataset.remove(id),
        })
    }

    /// Flushes a table's pending deltas into its trie index. A no-op (and
    /// not an error) when the table has no index yet.
    pub fn flush(&mut self, table: &str) -> Result<(), SqlError> {
        if let Table::Indexed(sys) = self.entry_mut(table)? {
            sys.flush();
        }
        Ok(())
    }

    /// Runs the compaction policy on a table's index; returns whether a
    /// compaction actually happened (`false` for unindexed tables too).
    pub fn compact(&mut self, table: &str) -> Result<bool, SqlError> {
        Ok(match self.entry_mut(table)? {
            Table::Indexed(sys) => sys.compact(),
            Table::Rows(_) => false,
        })
    }

    /// Flushes pending deltas on every indexed table — the shutdown hook
    /// `dita-server` calls so no acknowledged write is left buffered.
    pub fn flush_all(&mut self) {
        self.systems_mut().for_each(DitaSystem::flush);
    }

    fn plan(&self, sql: &str) -> Result<PhysicalPlan, SqlError> {
        let stmt = parse(sql)?;
        let lp = logical_plan(stmt)?;
        Ok(physical_plan(lp, |t| self.is_indexed(t)))
    }

    /// Parses, plans and executes one statement: a batch of one.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, SqlError> {
        let mut results = self.execute_batch(&[sql])?;
        Ok(results.pop().expect("one statement, one result"))
    }

    /// Executes every plan but an indexed search, which
    /// [`Engine::execute_batch`] answers itself, a run at a time.
    fn run_plan(&mut self, plan: PhysicalPlan) -> Result<QueryResult, SqlError> {
        match plan {
            PhysicalPlan::FullScan { table } => {
                Ok(QueryResult::Rows(self.entry(&table)?.rows().into_owned()))
            }
            PhysicalPlan::IndexSearch { .. } => {
                unreachable!("execute_batch answers indexed searches itself")
            }
            PhysicalPlan::ScanSearch {
                table,
                func,
                query,
                tau,
            } => {
                let rows = self.entry(&table)?.rows();
                Ok(QueryResult::SearchHits(scan_search(
                    &rows, &query, tau, &func,
                )))
            }
            PhysicalPlan::IndexKnn {
                table,
                func,
                query,
                k,
            } => {
                let system = self.ensure_index(&table)?;
                let (hits, _) = knn_search(system, &query, k, &func);
                Ok(QueryResult::SearchHits(hits))
            }
            PhysicalPlan::IndexJoin {
                left,
                right,
                func,
                tau,
            } => {
                self.entry(&left)?;
                self.entry(&right)?;
                self.ensure_index(&left)?;
                self.ensure_index(&right)?;
                let lsys = self.system(&left).expect("built");
                let rsys = self.system(&right).expect("built");
                let (pairs, _) = join(lsys, rsys, tau, &func, &JoinOptions::default());
                Ok(QueryResult::JoinPairs(pairs))
            }
            PhysicalPlan::IngestInsert { table, rows } => {
                let n = self.insert_rows(&table, rows)?;
                Ok(QueryResult::Ack(format!(
                    "inserted {n} row(s) into {table}"
                )))
            }
            PhysicalPlan::IngestDelete { table, id } => {
                let removed = self.delete_row(&table, id)?;
                Ok(QueryResult::Ack(if removed {
                    format!("deleted id {id} from {table}")
                } else {
                    format!("id {id} not found in {table}")
                }))
            }
            PhysicalPlan::BuildIndex { table } => {
                self.ensure_index(&table)?;
                Ok(QueryResult::Ack(format!("trie index built on {table}")))
            }
            PhysicalPlan::ListTables => Ok(QueryResult::TableNames(self.table_names())),
            PhysicalPlan::Explain(inner) => Ok(QueryResult::Plan(inner.describe())),
        }
    }
}

impl Table {
    /// The table's rows: an unindexed table's in place, an indexed table's
    /// live view read out of the index in id order.
    fn rows(&self) -> Cow<'_, [Trajectory]> {
        match self {
            Table::Rows(dataset) => Cow::Borrowed(dataset.trajectories()),
            Table::Indexed(sys) => Cow::Owned(sys.live_trajectories()),
        }
    }
}

/// Index-free search fallback: verify every trajectory.
fn scan_search(
    trajectories: &[Trajectory],
    q: &[Point],
    tau: f64,
    func: &DistanceFunction,
) -> Vec<(TrajectoryId, f64)> {
    let mut hits: Vec<(TrajectoryId, f64)> = trajectories
        .iter()
        .filter_map(|t| func.verify(t.points(), q, tau).map(|d| (t.id, d)))
        .collect();
    hits.sort_by_key(|&(id, _)| id);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use dita_cluster::ClusterConfig;
    use dita_index::{PivotStrategy, TrieConfig};
    use dita_trajectory::trajectory::figure1_trajectories;

    fn engine() -> Engine {
        let mut e = Engine::new(
            Cluster::new(ClusterConfig::with_workers(2)),
            DitaConfig {
                ng: 2,
                trie: TrieConfig {
                    k: 2,
                    nl: 2,
                    leaf_capacity: 0,
                    strategy: PivotStrategy::NeighborDistance,
                    cell_side: 2.0,
                    ..TrieConfig::default()
                },
            },
        );
        e.register(
            "taxi",
            Dataset::new("fig1", figure1_trajectories()).unwrap(),
        )
        .unwrap();
        e
    }

    #[test]
    fn full_lifecycle() {
        let mut e = engine();
        // SHOW TABLES.
        match e.execute("SHOW TABLES").unwrap() {
            QueryResult::TableNames(names) => assert_eq!(names, vec!["taxi"]),
            other => panic!("{other:?}"),
        }
        // Unindexed search falls back to scanning.
        assert!(e
            .explain("SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY((1,1))) <= 1")
            .unwrap()
            .contains("ScanSearch"));
        // Build the index.
        match e.execute("CREATE INDEX trie_idx ON taxi USE TRIE").unwrap() {
            QueryResult::Ack(msg) => assert!(msg.contains("taxi")),
            other => panic!("{other:?}"),
        }
        assert!(e.is_indexed("taxi"));
        assert!(e
            .explain("SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY((1,1))) <= 1")
            .unwrap()
            .contains("IndexSearch"));
    }

    #[test]
    fn sql_search_matches_example_2_6() {
        let mut e = engine();
        e.execute("CREATE INDEX i ON taxi USE TRIE").unwrap();
        // Q = T1, τ = 3.
        let sql = "SELECT * FROM taxi WHERE DTW(taxi, \
                   TRAJECTORY((1,1),(1,2),(3,2),(4,4),(4,5),(5,5))) <= 3";
        match e.execute(sql).unwrap() {
            QueryResult::SearchHits(hits) => {
                let ids: Vec<u64> = hits.iter().map(|&(i, _)| i).collect();
                assert_eq!(ids, vec![1, 2]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scan_and_index_search_agree() {
        let mut e = engine();
        let sql = "SELECT * FROM taxi WHERE FRECHET(taxi, \
                   TRAJECTORY((1,1),(1,2),(3,2),(4,4),(4,5),(5,5))) <= 1.5";
        let scan = match e.execute(sql).unwrap() {
            QueryResult::SearchHits(h) => h,
            other => panic!("{other:?}"),
        };
        e.execute("CREATE INDEX i ON taxi USE TRIE").unwrap();
        let indexed = match e.execute(sql).unwrap() {
            QueryResult::SearchHits(h) => h,
            other => panic!("{other:?}"),
        };
        assert_eq!(scan, indexed);
    }

    #[test]
    fn sql_join_matches_ground_truth() {
        let mut e = engine();
        e.register(
            "taxi2",
            Dataset::new("fig1b", figure1_trajectories()).unwrap(),
        )
        .unwrap();
        let pairs = match e
            .execute("SELECT * FROM taxi TRA-JOIN taxi2 ON DTW(taxi, taxi2) <= 3")
            .unwrap()
        {
            QueryResult::JoinPairs(p) => p,
            other => panic!("{other:?}"),
        };
        let ts = figure1_trajectories();
        let mut expect = Vec::new();
        for a in &ts {
            for b in &ts {
                if dita_distance::dtw(a.points(), b.points()) <= 3.0 {
                    expect.push((a.id, b.id));
                }
            }
        }
        expect.sort_unstable();
        let got: Vec<(u64, u64)> = pairs.iter().map(|&(a, b, _)| (a, b)).collect();
        assert_eq!(got, expect);
        // Joins build indexes as a side effect (§6.1).
        assert!(e.is_indexed("taxi"));
        assert!(e.is_indexed("taxi2"));
    }

    #[test]
    fn sql_knn_returns_k_nearest() {
        let mut e = engine();
        let sql = "SELECT * FROM taxi ORDER BY \
                   DTW(taxi, TRAJECTORY((1,1),(1,2),(3,2),(4,4),(4,5),(5,5))) LIMIT 3";
        match e.execute(sql).unwrap() {
            QueryResult::SearchHits(hits) => {
                let ids: Vec<u64> = hits.iter().map(|&(i, _)| i).collect();
                // T1 itself, then T2 (DTW 2.83), then T3 (DTW 5.41).
                assert_eq!(ids, vec![1, 2, 3]);
                assert!(hits[0].1 <= hits[1].1 && hits[1].1 <= hits[2].1);
            }
            other => panic!("{other:?}"),
        }
        assert!(e
            .explain("SELECT * FROM taxi ORDER BY DTW(taxi, TRAJECTORY((0,0))) LIMIT 2")
            .unwrap()
            .contains("IndexKnn"));
    }

    #[test]
    fn explain_statement_reports_plan_without_executing() {
        let mut e = engine();
        match e
            .execute("EXPLAIN SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY((1,1))) <= 1")
            .unwrap()
        {
            QueryResult::Plan(p) => assert!(p.contains("ScanSearch"), "{p}"),
            other => panic!("{other:?}"),
        }
        // EXPLAIN must not build indexes as a side effect.
        assert!(!e.is_indexed("taxi"));
    }

    #[test]
    fn plain_select_returns_all_rows() {
        let mut e = engine();
        match e.execute("SELECT * FROM taxi").unwrap() {
            QueryResult::Rows(rows) => assert_eq!(rows.len(), 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_and_delete_flow_through_ingestion() {
        let mut e = engine();
        e.execute("CREATE INDEX i ON taxi USE TRIE").unwrap();
        // Insert a new trajectory: visible to indexed search immediately.
        e.execute("INSERT INTO taxi VALUES (9, TRAJECTORY((50, 50), (51, 51)))")
            .unwrap();
        match e
            .execute("SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY((50,50),(51,51))) <= 0")
            .unwrap()
        {
            QueryResult::SearchHits(hits) => {
                assert_eq!(hits.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![9]);
            }
            other => panic!("{other:?}"),
        }
        // A full scan reads it out of the index too.
        match e.execute("SELECT * FROM taxi").unwrap() {
            QueryResult::Rows(rows) => assert_eq!(rows.len(), 6),
            other => panic!("{other:?}"),
        }
        // Delete tombstones it everywhere.
        match e.execute("DELETE FROM taxi WHERE id = 9").unwrap() {
            QueryResult::Ack(msg) => assert!(msg.contains("deleted id 9"), "{msg}"),
            other => panic!("{other:?}"),
        }
        match e
            .execute("SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY((50,50),(51,51))) <= 0")
            .unwrap()
        {
            QueryResult::SearchHits(hits) => assert!(hits.is_empty()),
            other => panic!("{other:?}"),
        }
        match e.execute("SELECT * FROM taxi").unwrap() {
            QueryResult::Rows(rows) => assert_eq!(rows.len(), 5),
            other => panic!("{other:?}"),
        }
        // Insert on an unindexed table updates the dataset only.
        let mut e2 = engine();
        e2.execute("INSERT INTO taxi VALUES (9, TRAJECTORY((50, 50)))")
            .unwrap();
        assert!(!e2.is_indexed("taxi"));
        match e2.execute("SELECT * FROM taxi").unwrap() {
            QueryResult::Rows(rows) => assert_eq!(rows.len(), 6),
            other => panic!("{other:?}"),
        }
        assert!(e2
            .explain("INSERT INTO taxi VALUES (1, TRAJECTORY((0,0)))")
            .unwrap()
            .contains("IngestInsert"));
        assert!(e2
            .explain("DELETE FROM taxi WHERE id = 1")
            .unwrap()
            .contains("IngestDelete"));
    }

    #[test]
    fn sql_upsert_overwrites_by_id() {
        let mut e = engine();
        e.execute("CREATE INDEX i ON taxi USE TRIE").unwrap();
        e.execute("INSERT INTO taxi VALUES (1, TRAJECTORY((80, 80), (81, 81)))")
            .unwrap();
        // The old T1 geometry no longer matches id 1...
        let old = "SELECT * FROM taxi WHERE \
                   DTW(taxi, TRAJECTORY((1,1),(1,2),(3,2),(4,4),(4,5),(5,5))) <= 0";
        match e.execute(old).unwrap() {
            QueryResult::SearchHits(hits) => assert!(hits.is_empty()),
            other => panic!("{other:?}"),
        }
        // ...the new one does, and the row count is unchanged.
        match e
            .execute("SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY((80,80),(81,81))) <= 0")
            .unwrap()
        {
            QueryResult::SearchHits(hits) => {
                assert_eq!(hits.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![1]);
            }
            other => panic!("{other:?}"),
        }
        match e.execute("SELECT * FROM taxi").unwrap() {
            QueryResult::Rows(rows) => assert_eq!(rows.len(), 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn execute_batch_matches_per_statement_execution() {
        let mk = |indexed: bool| {
            let mut e = engine();
            if indexed {
                e.execute("CREATE INDEX i ON taxi USE TRIE").unwrap();
            }
            e
        };
        // A mixed script: a run of three compatible DTW searches (batched),
        // a FRECHET search (closes the run, starts its own), a full scan,
        // then one more DTW search.
        let stmts = [
            "SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY((1,1),(1,2),(3,2))) <= 3",
            "SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY((4,4),(4,5),(5,5))) <= 2",
            "SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY((0,0))) <= 10",
            "SELECT * FROM taxi WHERE FRECHET(taxi, TRAJECTORY((1,1),(1,2))) <= 1.5",
            "SELECT * FROM taxi",
            "SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY((2,2),(3,3))) <= 4",
        ];
        let mut batch_engine = mk(true);
        let batched = batch_engine.execute_batch(&stmts).unwrap();
        let mut serial_engine = mk(true);
        for (got, sql) in batched.iter().zip(stmts) {
            let expect = serial_engine.execute(sql).unwrap();
            match (got, expect) {
                (QueryResult::SearchHits(b), QueryResult::SearchHits(s)) => {
                    assert_eq!(b, &s, "{sql}")
                }
                (QueryResult::Rows(b), QueryResult::Rows(s)) => assert_eq!(b.len(), s.len()),
                (b, s) => panic!("variant mismatch for {sql}: {b:?} vs {s:?}"),
            }
        }
        // Unindexed searches are not batched but still answer identically.
        let mut e = mk(false);
        let results = e.execute_batch(&stmts[..2]).unwrap();
        assert_eq!(results.len(), 2);
        // Errors abort the batch in statement order.
        let mut e = mk(true);
        assert!(e.execute_batch(&[stmts[0], "SELECT * FROM nope"]).is_err());

        // A CREATE INDEX mid-batch changes the plan of what follows it: the
        // same search answers by scan before it (no cluster job) and by
        // index after it (one), with equal hits.
        let mut e = mk(false);
        let obs = dita_obs::Obs::enabled();
        e.attach_obs(obs.clone());
        let search = "SELECT * FROM taxi WHERE DTW(taxi, \
                      TRAJECTORY((1,1),(1,2),(3,2),(4,4),(4,5),(5,5))) <= 3";
        let script = [search, "CREATE INDEX i ON taxi USE TRIE", search];
        let results = e.execute_batch(&script).unwrap();
        match (&results[0], &results[2]) {
            (QueryResult::SearchHits(scan), QueryResult::SearchHits(index)) => {
                assert!(!scan.is_empty());
                assert_eq!(scan, index);
            }
            other => panic!("{other:?}"),
        }
        let jobs: u64 = obs
            .report()
            .profile
            .iter()
            .filter(|n| n.name == dita_obs::names::SPAN_SEARCH_BATCH)
            .map(|n| n.count)
            .sum();
        assert_eq!(jobs, 1, "the search after CREATE INDEX answers by index");

        // A parse error mid-batch is the per-statement loop's error at the
        // loop's position: the run it closes and the write before it took
        // effect, the write after it did not.
        let script = [
            "INSERT INTO taxi VALUES (77, TRAJECTORY((1,1),(1,2)))",
            stmts[0],
            stmts[1],
            "SELEC * FROM taxi",
            "DELETE FROM taxi WHERE id = 77",
        ];
        let mut batch_engine = mk(true);
        let batch_err = batch_engine.execute_batch(&script).unwrap_err();
        let mut serial_engine = mk(true);
        let (at, serial_err) = script
            .iter()
            .enumerate()
            .find_map(|(i, sql)| serial_engine.execute(sql).err().map(|e| (i, e)))
            .unwrap();
        assert_eq!(at, 3);
        assert_eq!(batch_err, serial_err);
        let rows = batch_engine.snapshot("taxi").unwrap();
        assert!(rows.trajectories().iter().any(|t| t.id == 77));
        assert_eq!(rows, serial_engine.snapshot("taxi").unwrap());
    }

    #[test]
    fn programmatic_ingest_flush_and_compact() {
        let mut e = engine();
        e.execute("CREATE INDEX i ON taxi USE TRIE").unwrap();
        // insert_rows / delete_row are the SQL write path.
        let n = e
            .insert_rows(
                "taxi",
                vec![(42, vec![Point { x: 9.0, y: 9.0 }, Point { x: 9.5, y: 9.5 }])],
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(e.row_count("taxi").unwrap(), 6);
        // After a flush nothing is left in the unflushed tail (the
        // compaction policy may have already folded the delta on insert —
        // either way the invariant holds).
        e.flush("taxi").unwrap();
        assert!(!e.system("taxi").unwrap().deltas().has_deltas());
        let _ = e.compact("taxi").unwrap();
        assert!(e.delete_row("taxi", 42).unwrap());
        assert!(!e.delete_row("taxi", 42).unwrap());
        assert_eq!(e.row_count("taxi").unwrap(), 5);
        // flush_all drains every indexed table.
        e.insert_rows("taxi", vec![(43, vec![Point { x: 1.0, y: 1.0 }])])
            .unwrap();
        e.flush_all();
        assert!(!e.system("taxi").unwrap().deltas().has_deltas());
        // Unindexed tables: flush is a no-op, compact reports false.
        let mut e2 = engine();
        e2.flush("taxi").unwrap();
        assert!(!e2.compact("taxi").unwrap());
        assert!(e2.flush("nope").is_err());
        // Non-finite coordinates are refused before touching the table.
        assert!(e
            .insert_rows(
                "taxi",
                vec![(
                    44,
                    vec![Point {
                        x: f64::NAN,
                        y: 0.0
                    }]
                )]
            )
            .is_err());
    }

    #[test]
    fn a_refused_batch_leaves_the_table_as_it_was() {
        let good = vec![Point { x: 9.0, y: 9.0 }];
        let bad_rows = [
            vec![],
            vec![Point {
                x: 0.0,
                y: f64::INFINITY,
            }],
        ];
        for indexed in [true, false] {
            let mut e = engine();
            if indexed {
                e.execute("CREATE INDEX i ON taxi USE TRIE").unwrap();
            }
            let before = e.snapshot("taxi").unwrap();
            for bad in &bad_rows {
                // The first row is fine (a new id and an overwrite of id 1);
                // the second is refused, and takes the first with it.
                for id in [42, 1] {
                    let batch = vec![(id, good.clone()), (43, bad.clone())];
                    assert!(matches!(
                        e.insert_rows("taxi", batch),
                        Err(SqlError::Parse { .. })
                    ));
                    assert_eq!(e.snapshot("taxi").unwrap(), before, "indexed: {indexed}");
                    assert_eq!(e.row_count("taxi").unwrap(), 5);
                }
            }
            assert_eq!(e.is_indexed("taxi"), indexed);
        }
    }

    #[test]
    fn errors_surface() {
        let mut e = engine();
        assert!(matches!(
            e.execute("SELECT * FROM nope").unwrap_err(),
            SqlError::UnknownTable { .. }
        ));
        assert!(matches!(
            e.register("taxi", Dataset::new("x", vec![]).unwrap()),
            Err(SqlError::DuplicateTable { .. })
        ));
        assert!(e.execute("DELETE FROM taxi").is_err());
    }
}
