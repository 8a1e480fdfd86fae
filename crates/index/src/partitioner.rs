//! Data partitioning (§4.2.1).
//!
//! Trajectories are first grouped by their *first* point into `NG` buckets
//! with Sort-Tile-Recursive tiling, then each bucket is split by the *last*
//! point into `NG` sub-buckets; every non-empty sub-bucket becomes a
//! partition. STR guarantees roughly equal bucket sizes even on highly
//! skewed data, and grouping by endpoints keeps similar trajectories (whose
//! endpoints must be close under the endpoint-aligned distance functions)
//! in the same partition — the data-locality property the paper's Appendix B
//! ablation (Figure 13) measures against random partitioning.

use crate::fanout::FanOut;
use dita_trajectory::{Mbr, Point, Trajectory};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// One partition: the indices of its trajectories within the source slice
/// plus the two MBRs the global index stores for it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Partition {
    /// Partition id, dense in `0..partitions.len()`.
    pub id: usize,
    /// Indices into the source trajectory slice.
    pub members: Vec<usize>,
    /// MBR of the members' first points (`MBR_f`).
    pub mbr_first: Mbr,
    /// MBR of the members' last points (`MBR_l`).
    pub mbr_last: Mbr,
    /// Shortest member length — the edit-family global filter may charge
    /// two endpoint edits only when first and last are distinct points.
    pub min_len: usize,
    /// Longest member length.
    pub max_len: usize,
}

/// The result of partitioning a dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Partitioning {
    /// All non-empty partitions, ids dense from 0.
    pub partitions: Vec<Partition>,
}

impl Partitioning {
    /// Total number of trajectories covered.
    pub fn total_members(&self) -> usize {
        self.partitions.iter().map(|p| p.members.len()).sum()
    }

    /// Size of the largest partition divided by the average — a quick skew
    /// measure used in tests and the load-balancing experiments.
    pub fn skew(&self) -> f64 {
        if self.partitions.is_empty() {
            return 1.0;
        }
        let max = self
            .partitions
            .iter()
            .map(|p| p.members.len())
            .max()
            .unwrap_or(0) as f64;
        let avg = self.total_members() as f64 / self.partitions.len() as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }
}

/// Stable sort of `idx` over a fan-out: one run a thread is sorted in
/// parallel and the runs merged pairwise with a left-run-first tie rule,
/// which reproduces the exact permutation of a serial (stable) `sort_by`
/// for every thread count.
fn par_sort_stable<F>(mut idx: Vec<usize>, fan: &FanOut, cmp: &F) -> Vec<usize>
where
    F: Fn(usize, usize) -> Ordering + Sync,
{
    let chunk = idx.len().div_ceil(fan.threads());
    if chunk <= 1 || chunk >= idx.len() {
        idx.sort_by(|&a, &b| cmp(a, b));
        return idx;
    }
    let runs: Vec<Vec<usize>> = idx.chunks(chunk).map(|c| c.to_vec()).collect();
    let mut runs = fan.map(runs, |mut run| {
        run.sort_by(|&a, &b| cmp(a, b));
        run
    });
    // Pairwise merges of adjacent runs keep the concatenation order, so
    // stability (equal keys keep their original relative order) holds.
    while runs.len() > 1 {
        let mut next: Vec<Vec<usize>> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                None => next.push(a),
                Some(b) => {
                    let mut out = Vec::with_capacity(a.len() + b.len());
                    let (mut i, mut j) = (0usize, 0usize);
                    while i < a.len() && j < b.len() {
                        if cmp(a[i], b[j]) != Ordering::Greater {
                            out.push(a[i]);
                            i += 1;
                        } else {
                            out.push(b[j]);
                            j += 1;
                        }
                    }
                    out.extend_from_slice(&a[i..]);
                    out.extend_from_slice(&b[j..]);
                    next.push(out);
                }
            }
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

/// Sorts one x-slab by y and cuts it into `rows` row tiles, snapping cuts
/// off equal-y runs.
fn cut_slab(keys: &[Point], mut slab: Vec<usize>, rows: usize) -> Vec<Vec<usize>> {
    slab.sort_by(|&a, &b| {
        keys[a]
            .y
            .total_cmp(&keys[b].y)
            .then(keys[a].x.total_cmp(&keys[b].x))
    });
    let mut out = Vec::with_capacity(rows);
    let mut start = 0;
    for r in 0..rows {
        let end = if r + 1 == rows {
            slab.len()
        } else {
            let remaining_rows = rows - r;
            let ideal = start + (slab.len() - start).div_ceil(remaining_rows);
            let max_shift = ((slab.len() - start) / remaining_rows / 4).max(1);
            adjust_cut(&slab, |i| keys[i].y, ideal, max_shift).clamp(start, slab.len())
        };
        out.push(slab[start..end].to_vec());
        start = end;
    }
    out
}

/// Moves a cut index off the middle of a run of equal key values: a tile
/// boundary that splits identical coordinates produces overlapping MBRs, so
/// the cut snaps to whichever run edge is nearer (keeping the original cut
/// only when both edges would create an empty group).
fn adjust_cut(sorted: &[usize], key: impl Fn(usize) -> f64, b: usize, max_shift: usize) -> usize {
    if b == 0 || b >= sorted.len() {
        return b;
    }
    let v = key(sorted[b]);
    if key(sorted[b - 1]) != v {
        return b;
    }
    let mut lo = b;
    while lo > 0 && key(sorted[lo - 1]) == v {
        lo -= 1;
    }
    let mut hi = b;
    while hi < sorted.len() && key(sorted[hi]) == v {
        hi += 1;
    }
    // Shifting the cut must stay bounded: on pathological data where one
    // coordinate value repeats massively, balanced counts beat tile purity
    // (the paper's STR guarantee "roughly the same number of points, even
    // for highly skewed data").
    let lo_ok = lo > 0 && b - lo <= max_shift;
    let hi_ok = hi < sorted.len() && hi - b <= max_shift;
    match (lo_ok, hi_ok) {
        (true, true) => {
            if b - lo <= hi - b {
                lo
            } else {
                hi
            }
        }
        (true, false) => lo,
        (false, true) => hi,
        (false, false) => b,
    }
}

/// STR tiling of indexed points into exactly `n` tiles: sort by x, cut into
/// `ceil(sqrt(n))` vertical slabs, sort each slab by y and cut into enough
/// rows that the total tile count is exactly `n` (empty tiles are possible
/// only when there are fewer items than tiles). Shared with the trie index,
/// which tiles on per-level indexing points.
// lint: allow(unpriced-parallelism, reason = "a fan-out of one thread maps inline: there is no helper CPU to charge")
pub fn str_tiles_pub(keys: &[Point], idx: Vec<usize>, n: usize) -> Vec<Vec<usize>> {
    str_tiles_with(keys, idx, n, &FanOut::new(1))
}

/// [`str_tiles_pub`] with the x-sort and the per-slab y-sorts spread over
/// `fan`. The output is identical for every thread count.
fn str_tiles_with(keys: &[Point], idx: Vec<usize>, n: usize, fan: &FanOut) -> Vec<Vec<usize>> {
    assert!(n >= 1);
    if n == 1 || idx.len() <= 1 {
        let mut out = vec![idx];
        out.resize_with(n.max(1), Vec::new);
        return out;
    }
    let slabs = (n as f64).sqrt().ceil() as usize;
    // Distribute n tiles over `slabs` slabs as evenly as possible.
    let base = n / slabs;
    let extra = n % slabs;
    let cmp_x = |a: usize, b: usize| {
        keys[a]
            .x
            .total_cmp(&keys[b].x)
            .then(keys[a].y.total_cmp(&keys[b].y))
    };
    let idx = par_sort_stable(idx, fan, &cmp_x);
    // Slab boundaries are sequential — each cut depends on the previous —
    // but cheap: only the sorts below them dominate.
    let total = idx.len();
    let mut slab_specs: Vec<(Vec<usize>, usize)> = Vec::with_capacity(slabs);
    let mut consumed = 0;
    let mut tiles_done = 0;
    for s in 0..slabs {
        let tiles_here = base + usize::from(s < extra);
        if tiles_here == 0 {
            continue;
        }
        // Number of items for this slab, proportional to its tile share,
        // with the boundary snapped off equal-x runs.
        let remaining_tiles = n - tiles_done;
        let remaining_items = total - consumed;
        let items_here = if tiles_here == remaining_tiles {
            remaining_items
        } else {
            let ideal = consumed + (remaining_items * tiles_here).div_ceil(remaining_tiles);
            let max_shift = (remaining_items / remaining_tiles / 4).max(1);
            adjust_cut(&idx, |i| keys[i].x, ideal, max_shift).max(consumed) - consumed
        };
        let slab: Vec<usize> = idx[consumed..consumed + items_here].to_vec();
        consumed += items_here;
        tiles_done += tiles_here;
        slab_specs.push((slab, tiles_here));
    }
    // Row cuts: slabs are disjoint, so their y-sorts fan out.
    let groups = fan.map(slab_specs, |(slab, rows)| cut_slab(keys, slab, rows));
    let out: Vec<Vec<usize>> = groups.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), n);
    out
}

/// First/last-point STR partitioning (Algorithm 1, lines 1–3).
///
/// Produces up to `ng * ng` non-empty partitions.
///
/// # Panics
/// Panics if `ng == 0`.
pub fn str_partitioning(trajectories: &[Trajectory], ng: usize) -> Partitioning {
    str_partitioning_par(trajectories, ng, 1)
}

/// The sub-partitions of one first-point bucket (ids assigned later).
fn split_bucket(
    trajectories: &[Trajectory],
    firsts: &[Point],
    lasts: &[Point],
    bucket: Vec<usize>,
    ng: usize,
) -> Vec<Partition> {
    let mut out = Vec::new();
    for sub in str_tiles_pub(lasts, bucket, ng) {
        if sub.is_empty() {
            continue;
        }
        let mbr_first = Mbr::from_points(sub.iter().map(|&i| &firsts[i]));
        let mbr_last = Mbr::from_points(sub.iter().map(|&i| &lasts[i]));
        let min_len = sub
            .iter()
            .map(|&i| trajectories[i].len())
            .min()
            .unwrap_or(0);
        let max_len = sub
            .iter()
            .map(|&i| trajectories[i].len())
            .max()
            .unwrap_or(0);
        out.push(Partition {
            id: 0, // dense ids assigned by the caller, in bucket order
            members: sub,
            mbr_first,
            mbr_last,
            min_len,
            max_len,
        });
    }
    out
}

/// [`str_partitioning`] on `threads` threads: key extraction, the top-level
/// x-sort, slab y-sorts and the per-bucket second-level tilings all fan out.
/// The partitioning is identical for every thread count.
///
/// Partitioning runs on the driver, outside any cluster task, so — unlike
/// `TrieIndex::build_timed` — there is no task to charge helper CPU back to.
///
/// # Panics
/// Panics if `ng == 0`.
// lint: allow(unpriced-parallelism, reason = "runs on the driver before any cluster task exists; there is no task to charge helper CPU back to")
pub fn str_partitioning_par(
    trajectories: &[Trajectory],
    ng: usize,
    threads: usize,
) -> Partitioning {
    assert!(ng >= 1, "NG must be at least 1");
    let fan = FanOut::new(threads);

    // Key extraction: first/last point per trajectory.
    let (firsts, lasts): (Vec<Point>, Vec<Point>) = fan
        .map(trajectories, |t| (*t.first(), *t.last()))
        .into_iter()
        .unzip();

    let all: Vec<usize> = (0..trajectories.len()).collect();
    let buckets = str_tiles_with(&firsts, all, ng, &fan);

    // Second level: buckets are independent of one another.
    let groups = fan.map(buckets, |bucket| {
        split_bucket(trajectories, &firsts, &lasts, bucket, ng)
    });

    let mut partitions = Vec::new();
    for group in groups {
        for mut p in group {
            p.id = partitions.len();
            partitions.push(p);
        }
    }
    Partitioning { partitions }
}

/// Random partitioning into `n` partitions — the ablation baseline of
/// Appendix B (Figure 13). Deterministic for a given `seed`.
pub fn random_partitioning(trajectories: &[Trajectory], n: usize, seed: u64) -> Partitioning {
    assert!(n >= 1);
    // SplitMix64: tiny, deterministic, no external dependency.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..trajectories.len() {
        members[(next() % n as u64) as usize].push(i);
    }
    let mut partitions = Vec::new();
    for m in members {
        if m.is_empty() {
            continue;
        }
        let mbr_first = Mbr::from_points(m.iter().map(|&i| trajectories[i].first()));
        let mbr_last = Mbr::from_points(m.iter().map(|&i| trajectories[i].last()));
        let min_len = m.iter().map(|&i| trajectories[i].len()).min().unwrap_or(0);
        let max_len = m.iter().map(|&i| trajectories[i].len()).max().unwrap_or(0);
        partitions.push(Partition {
            id: partitions.len(),
            members: m,
            mbr_first,
            mbr_last,
            min_len,
            max_len,
        });
    }
    Partitioning { partitions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dita_trajectory::trajectory::figure1_trajectories;

    fn line_trajectories(n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                let x = (i % 37) as f64;
                let y = (i / 37) as f64;
                Trajectory::from_coords(i as u64, &[(x, y), (x + 1.0, y + 1.0), (x + 2.0, y)])
            })
            .collect()
    }

    #[test]
    fn every_trajectory_in_exactly_one_partition() {
        let ts = line_trajectories(500);
        for ng in [1, 2, 4, 8] {
            let p = str_partitioning(&ts, ng);
            assert_eq!(p.total_members(), 500, "ng={ng}");
            let mut seen = vec![false; 500];
            for part in &p.partitions {
                for &m in &part.members {
                    assert!(!seen[m], "duplicate member {m}");
                    seen[m] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
            assert!(p.partitions.len() <= ng * ng);
        }
    }

    #[test]
    fn partition_mbrs_cover_endpoints() {
        let ts = line_trajectories(300);
        let p = str_partitioning(&ts, 4);
        for part in &p.partitions {
            for &m in &part.members {
                assert!(part.mbr_first.contains_point(ts[m].first()));
                assert!(part.mbr_last.contains_point(ts[m].last()));
            }
        }
    }

    #[test]
    fn str_balances_even_skewed_data() {
        // Heavily skewed: 80% of first points at the same location.
        let mut ts = Vec::new();
        for i in 0..400u64 {
            ts.push(Trajectory::from_coords(
                i,
                &[(0.0, 0.0), (i as f64 % 13.0, 1.0)],
            ));
        }
        for i in 400..500u64 {
            ts.push(Trajectory::from_coords(
                i,
                &[((i % 10) as f64, (i % 7) as f64), (1.0, 1.0)],
            ));
        }
        let p = str_partitioning(&ts, 4);
        assert_eq!(p.total_members(), 500);
        // STR splits by rank, not by location, so no partition explodes.
        assert!(p.skew() < 2.0, "skew = {}", p.skew());
    }

    #[test]
    fn figure1_small_partitioning() {
        let ts = figure1_trajectories();
        let p = str_partitioning(&ts, 2);
        assert_eq!(p.total_members(), 5);
        assert!(!p.partitions.is_empty());
        // Ids are dense.
        for (i, part) in p.partitions.iter().enumerate() {
            assert_eq!(part.id, i);
        }
    }

    #[test]
    fn ng_one_is_single_partition() {
        let ts = line_trajectories(50);
        let p = str_partitioning(&ts, 1);
        assert_eq!(p.partitions.len(), 1);
        assert_eq!(p.partitions[0].members.len(), 50);
    }

    #[test]
    fn random_partitioning_covers_and_is_deterministic() {
        let ts = line_trajectories(200);
        let a = random_partitioning(&ts, 8, 42);
        let b = random_partitioning(&ts, 8, 42);
        assert_eq!(a.total_members(), 200);
        assert_eq!(
            a.partitions
                .iter()
                .map(|p| p.members.clone())
                .collect::<Vec<_>>(),
            b.partitions
                .iter()
                .map(|p| p.members.clone())
                .collect::<Vec<_>>()
        );
        let c = random_partitioning(&ts, 8, 7);
        assert_ne!(
            a.partitions
                .iter()
                .map(|p| p.members.clone())
                .collect::<Vec<_>>(),
            c.partitions
                .iter()
                .map(|p| p.members.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn more_trajectories_than_tiles_needed() {
        // Fewer trajectories than NG*NG: partitions stay non-empty and small.
        let ts = line_trajectories(3);
        let p = str_partitioning(&ts, 8);
        assert_eq!(p.total_members(), 3);
        assert!(p.partitions.iter().all(|q| !q.members.is_empty()));
    }
}
