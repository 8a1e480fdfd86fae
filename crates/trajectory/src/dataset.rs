//! Owned trajectory collections with Table-2-style statistics and a simple
//! line-oriented text format for persistence.

use crate::error::TrajectoryError;
use crate::point::Point;
use crate::trajectory::{Trajectory, TrajectoryId};
use std::collections::HashSet;
use std::fmt;
use std::io::{BufRead, Write};

/// A named, owned collection of trajectories.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Human-readable dataset name (e.g. `"beijing-like"`).
    pub name: String,
    trajectories: Vec<Trajectory>,
}

/// Summary statistics matching the columns of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Number of trajectories.
    pub cardinality: usize,
    /// Mean trajectory length in points.
    pub avg_len: f64,
    /// Minimum trajectory length.
    pub min_len: usize,
    /// Maximum trajectory length.
    pub max_len: usize,
    /// Total number of points.
    pub total_points: u64,
    /// Approximate in-memory size in bytes.
    pub size_bytes: u64,
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cardinality={} avg_len={:.1} min_len={} max_len={} size={:.2}MB",
            self.cardinality,
            self.avg_len,
            self.min_len,
            self.max_len,
            self.size_bytes as f64 / (1024.0 * 1024.0)
        )
    }
}

impl Dataset {
    /// Creates a dataset, validating that ids are unique, trajectories are
    /// non-empty and all coordinates are finite.
    pub fn new(
        name: impl Into<String>,
        trajectories: Vec<Trajectory>,
    ) -> Result<Self, TrajectoryError> {
        let mut seen = HashSet::with_capacity(trajectories.len());
        for t in &trajectories {
            if t.is_empty() {
                return Err(TrajectoryError::Empty { id: t.id });
            }
            if t.points().iter().any(|p| !p.is_finite()) {
                return Err(TrajectoryError::NonFinite { id: t.id });
            }
            if !seen.insert(t.id) {
                return Err(TrajectoryError::DuplicateId { id: t.id });
            }
        }
        Ok(Dataset {
            name: name.into(),
            trajectories,
        })
    }

    /// Creates a dataset without validation. Intended for generators that
    /// guarantee the invariants by construction.
    pub fn new_unchecked(name: impl Into<String>, trajectories: Vec<Trajectory>) -> Self {
        Dataset {
            name: name.into(),
            trajectories,
        }
    }

    /// The trajectories.
    #[inline]
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajectories
    }

    /// Upserts `rows` in order — a row replaces the trajectory that has
    /// its id, so the latest write wins and ids stay unique — and leaves
    /// the dataset in id order. One pass over the dataset a row; finite
    /// coordinates are the caller's to check, as with
    /// [`Dataset::new_unchecked`].
    pub fn upsert(&mut self, rows: impl IntoIterator<Item = Trajectory>) {
        for t in rows {
            self.trajectories.retain(|x| x.id != t.id);
            self.trajectories.push(t);
        }
        self.trajectories.sort_by_key(|t| t.id);
    }

    /// Removes the trajectory with this id; whether there was one.
    pub fn remove(&mut self, id: TrajectoryId) -> bool {
        let before = self.trajectories.len();
        self.trajectories.retain(|t| t.id != id);
        before != self.trajectories.len()
    }

    /// Number of trajectories.
    #[inline]
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Returns `true` when the dataset holds no trajectories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// Consumes the dataset, returning its trajectories.
    pub fn into_trajectories(self) -> Vec<Trajectory> {
        self.trajectories
    }

    /// Computes Table-2-style statistics.
    pub fn stats(&self) -> DatasetStats {
        let cardinality = self.trajectories.len();
        let mut min_len = usize::MAX;
        let mut max_len = 0usize;
        let mut total_points = 0u64;
        let mut size_bytes = 0u64;
        for t in &self.trajectories {
            min_len = min_len.min(t.len());
            max_len = max_len.max(t.len());
            total_points += t.len() as u64;
            size_bytes += t.size_bytes() as u64;
        }
        if cardinality == 0 {
            min_len = 0;
        }
        DatasetStats {
            cardinality,
            avg_len: if cardinality == 0 {
                0.0
            } else {
                total_points as f64 / cardinality as f64
            },
            min_len,
            max_len,
            total_points,
            size_bytes,
        }
    }

    /// Keeps the first `ceil(rate * len)` trajectories — the paper's
    /// "sample rate" axis in the scalability experiments (§7.2).
    ///
    /// # Panics
    /// Panics unless `0.0 < rate <= 1.0`.
    pub fn sample(&self, rate: f64) -> Dataset {
        assert!(rate > 0.0 && rate <= 1.0, "sample rate must be in (0, 1]");
        let n = ((self.trajectories.len() as f64) * rate).ceil() as usize;
        Dataset {
            name: format!("{}@{rate}", self.name),
            trajectories: self.trajectories[..n.min(self.trajectories.len())].to_vec(),
        }
    }

    /// Writes the dataset in the line format
    /// `id x1 y1 x2 y2 ...` (one trajectory per line).
    pub fn write_text<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for t in &self.trajectories {
            write!(w, "{}", t.id)?;
            for p in t.points() {
                write!(w, " {} {}", p.x, p.y)?;
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Reads a dataset from the line format produced by [`Dataset::write_text`].
    pub fn read_text<R: BufRead>(name: impl Into<String>, r: R) -> Result<Self, TrajectoryError> {
        let mut trajectories = Vec::new();
        for (lineno, line) in r.lines().enumerate() {
            let line = line.map_err(|e| TrajectoryError::Parse {
                line: lineno + 1,
                message: e.to_string(),
            })?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_ascii_whitespace();
            let id: TrajectoryId =
                it.next()
                    .unwrap()
                    .parse()
                    .map_err(|_| TrajectoryError::Parse {
                        line: lineno + 1,
                        message: "invalid trajectory id".into(),
                    })?;
            let coords: Vec<f64> = it
                .map(|s| {
                    s.parse().map_err(|_| TrajectoryError::Parse {
                        line: lineno + 1,
                        message: format!("invalid coordinate {s:?}"),
                    })
                })
                .collect::<Result<_, _>>()?;
            if coords.is_empty() || !coords.len().is_multiple_of(2) {
                return Err(TrajectoryError::Parse {
                    line: lineno + 1,
                    message: "expected an even, non-zero number of coordinates".into(),
                });
            }
            let points: Vec<Point> = coords.chunks(2).map(|c| Point::new(c[0], c[1])).collect();
            trajectories.push(Trajectory::new(id, points));
        }
        Dataset::new(name, trajectories)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::figure1_trajectories;

    #[test]
    fn stats_of_figure1() {
        let d = Dataset::new("fig1", figure1_trajectories()).unwrap();
        let s = d.stats();
        assert_eq!(s.cardinality, 5);
        assert_eq!(s.min_len, 5);
        assert_eq!(s.max_len, 6);
        assert_eq!(s.total_points, 28);
        assert!((s.avg_len - 5.6).abs() < 1e-12);
        assert!(s.size_bytes > 0);
    }

    #[test]
    fn upsert_and_remove_keep_ids_unique() {
        let mut d = Dataset::new("fig1", figure1_trajectories()).unwrap();
        // A new id, an overwrite, and the new id again: the last one wins.
        d.upsert([
            Trajectory::from_coords(9, &[(0.0, 0.0)]),
            Trajectory::from_coords(2, &[(7.0, 7.0)]),
            Trajectory::from_coords(9, &[(1.0, 1.0)]),
        ]);
        let ids: Vec<TrajectoryId> = d.trajectories().iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 9]);
        assert_eq!(d.trajectories()[1].points(), &[Point::new(7.0, 7.0)]);
        assert_eq!(d.trajectories()[5].points(), &[Point::new(1.0, 1.0)]);
        assert!(d.remove(9));
        assert!(!d.remove(9));
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn empty_dataset_stats() {
        let d = Dataset::new("empty", vec![]).unwrap();
        let s = d.stats();
        assert_eq!(s.cardinality, 0);
        assert_eq!(s.min_len, 0);
        assert_eq!(s.avg_len, 0.0);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let ts = vec![
            Trajectory::from_coords(1, &[(0.0, 0.0)]),
            Trajectory::from_coords(1, &[(1.0, 1.0)]),
        ];
        assert_eq!(
            Dataset::new("dup", ts).unwrap_err(),
            TrajectoryError::DuplicateId { id: 1 }
        );
    }

    #[test]
    fn non_finite_rejected() {
        let ts = vec![Trajectory::from_coords(1, &[(f64::NAN, 0.0)])];
        assert_eq!(
            Dataset::new("nan", ts).unwrap_err(),
            TrajectoryError::NonFinite { id: 1 }
        );
    }

    #[test]
    fn sample_keeps_prefix() {
        let d = Dataset::new("fig1", figure1_trajectories()).unwrap();
        let half = d.sample(0.5);
        assert_eq!(half.len(), 3); // ceil(5 * 0.5)
        assert_eq!(half.trajectories()[0].id, 1);
        let all = d.sample(1.0);
        assert_eq!(all.len(), 5);
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn sample_rejects_zero() {
        let d = Dataset::new("fig1", figure1_trajectories()).unwrap();
        let _ = d.sample(0.0);
    }

    #[test]
    fn text_round_trip() {
        let d = Dataset::new("fig1", figure1_trajectories()).unwrap();
        let mut buf = Vec::new();
        d.write_text(&mut buf).unwrap();
        let d2 = Dataset::read_text("fig1", buf.as_slice()).unwrap();
        assert_eq!(d.trajectories(), d2.trajectories());
    }

    #[test]
    fn read_text_skips_comments_and_blank_lines() {
        let text = "# comment\n\n7 1.0 2.0 3.0 4.0\n";
        let d = Dataset::read_text("t", text.as_bytes()).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.trajectories()[0].id, 7);
        assert_eq!(d.trajectories()[0].len(), 2);
    }

    #[test]
    fn read_text_rejects_odd_coordinates() {
        let text = "1 1.0 2.0 3.0\n";
        let err = Dataset::read_text("t", text.as_bytes()).unwrap_err();
        assert!(matches!(err, TrajectoryError::Parse { line: 1, .. }));
    }

    #[test]
    fn read_text_rejects_bad_float() {
        let text = "1 1.0 oops\n";
        let err = Dataset::read_text("t", text.as_bytes()).unwrap_err();
        assert!(matches!(err, TrajectoryError::Parse { line: 1, .. }));
    }
}
