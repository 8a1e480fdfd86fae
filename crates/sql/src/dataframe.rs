//! The DataFrame API (§3): the programmatic equivalent of the extended SQL,
//! the way the paper exposes search and join "over DataFrame objects using
//! a domain-specific language".

use crate::engine::Engine;
use crate::error::SqlError;
use dita_core::{join, knn_search, search, JoinOptions};
use dita_distance::DistanceFunction;
use dita_trajectory::{Point, Trajectory, TrajectoryId};

/// A handle to a registered table.
pub struct DataFrame<'e> {
    engine: &'e mut Engine,
    table: String,
}

impl Engine {
    /// Opens a [`DataFrame`] over a registered table.
    pub fn table(&mut self, name: &str) -> Result<DataFrame<'_>, SqlError> {
        if !self.table_names().contains(&name.to_ascii_lowercase()) {
            return Err(SqlError::UnknownTable { name: name.into() });
        }
        Ok(DataFrame {
            engine: self,
            table: name.to_ascii_lowercase(),
        })
    }
}

impl DataFrame<'_> {
    /// The table name.
    pub fn name(&self) -> &str {
        &self.table
    }

    /// Number of rows.
    pub fn count(&mut self) -> usize {
        self.engine.row_count(&self.table).unwrap_or(0)
    }

    /// Collects all rows.
    pub fn collect(&mut self) -> Result<Vec<Trajectory>, SqlError> {
        match self
            .engine
            .execute(&format!("SELECT * FROM {}", self.table))?
        {
            crate::engine::QueryResult::Rows(rows) => Ok(rows),
            _ => unreachable!("SELECT * always yields rows"),
        }
    }

    /// Builds the trie index (the `CREATE INDEX ... USE TRIE` equivalent).
    pub fn create_trie_index(&mut self) -> Result<&mut Self, SqlError> {
        self.engine.ensure_index(&self.table)?;
        Ok(self)
    }

    /// Threshold similarity search against a query trajectory.
    pub fn similarity_search(
        &mut self,
        query: &[Point],
        func: DistanceFunction,
        tau: f64,
    ) -> Result<Vec<(TrajectoryId, f64)>, SqlError> {
        let system = self.engine.ensure_index(&self.table)?;
        let (hits, _) = search(system, query, tau, &func);
        Ok(hits)
    }

    /// k-nearest-neighbor search against a query trajectory.
    pub fn knn(
        &mut self,
        query: &[Point],
        func: DistanceFunction,
        k: usize,
    ) -> Result<Vec<(TrajectoryId, f64)>, SqlError> {
        let system = self.engine.ensure_index(&self.table)?;
        let (hits, _) = knn_search(system, query, k, &func);
        Ok(hits)
    }

    /// Threshold similarity join against another registered table.
    pub fn tra_join(
        &mut self,
        right: &str,
        func: DistanceFunction,
        tau: f64,
    ) -> Result<Vec<(TrajectoryId, TrajectoryId, f64)>, SqlError> {
        self.engine.ensure_index(&self.table)?;
        self.engine.ensure_index(right)?;
        // Re-borrow immutably for the join itself.
        let sql_left = self.table.clone();
        let left_sys = {
            let e: &Engine = self.engine;
            // Safety of design: ensure_index above guarantees both exist.
            e.system(&sql_left).expect("left index built")
        };
        let right_sys = self.engine.system(right).expect("right index built");
        let (pairs, _) = join(left_sys, right_sys, tau, &func, &JoinOptions::default());
        Ok(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dita_cluster::{Cluster, ClusterConfig};
    use dita_core::DitaConfig;
    use dita_index::{PivotStrategy, TrieConfig};
    use dita_trajectory::trajectory::figure1_trajectories;
    use dita_trajectory::Dataset;

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
    fn dataframe_search_matches_sql() {
        let mut e = engine();
        let ts = figure1_trajectories();
        let hits = e
            .table("taxi")
            .unwrap()
            .similarity_search(ts[0].points(), DistanceFunction::Dtw, 3.0)
            .unwrap();
        let ids: Vec<u64> = hits.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn dataframe_self_join() {
        let mut e = engine();
        let pairs = e
            .table("taxi")
            .unwrap()
            .tra_join("taxi", DistanceFunction::Dtw, 3.0)
            .unwrap();
        assert!(pairs.len() >= 5); // at least the identity pairs
        assert!(pairs.iter().any(|&(a, b, _)| a == 1 && b == 2));
    }

    #[test]
    fn count_and_collect() {
        let mut e = engine();
        let mut df = e.table("taxi").unwrap();
        assert_eq!(df.count(), 5);
        assert_eq!(df.collect().unwrap().len(), 5);
        assert_eq!(df.name(), "taxi");
    }

    #[test]
    fn dataframe_knn() {
        let mut e = engine();
        let ts = figure1_trajectories();
        let hits = e
            .table("taxi")
            .unwrap()
            .knn(ts[3].points(), DistanceFunction::Dtw, 2)
            .unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 4); // itself first
    }

    #[test]
    fn unknown_table_rejected() {
        let mut e = engine();
        assert!(e.table("nope").is_err());
    }

    #[test]
    fn chained_index_then_search() {
        let mut e = engine();
        let ts = figure1_trajectories();
        let mut df = e.table("taxi").unwrap();
        df.create_trie_index().unwrap();
        let hits = df
            .similarity_search(ts[3].points(), DistanceFunction::Dtw, 3.0)
            .unwrap();
        assert_eq!(hits.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![4]);
    }
}
