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
use dita_rng::SplitMix64;
use dita_trajectory::{Mbr, Point, Trajectory};

/// One partition: the indices of its trajectories within the source slice
/// plus the two MBRs the global index stores for it.
#[derive(Debug, Clone)]
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

impl Partition {
    /// Partition `id` over `members`, summarised by `summary`.
    pub fn new(id: usize, members: Vec<usize>, summary: EndpointSummary) -> Self {
        Partition {
            id,
            members,
            mbr_first: summary.mbr_first,
            mbr_last: summary.mbr_last,
            min_len: summary.min_len,
            max_len: summary.max_len,
        }
    }
}

/// What the global index keeps of a set of rows (§4.2.2): the MBRs of
/// their first and last points and their shortest and longest lengths.
/// Partitions, the partitions a compaction rebuilds and the ingest layer's
/// delta segments are all summarised by [`EndpointSummary::of`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointSummary {
    /// MBR of the rows' first points (`MBR_f`).
    pub mbr_first: Mbr,
    /// MBR of the rows' last points (`MBR_l`).
    pub mbr_last: Mbr,
    /// Shortest row length.
    pub min_len: usize,
    /// Longest row length.
    pub max_len: usize,
}

impl EndpointSummary {
    /// The summary of rows given as `(first point, last point, length)`.
    ///
    /// # Panics
    /// Panics if `rows` is empty.
    pub fn of(rows: impl IntoIterator<Item = (Point, Point, usize)>) -> Self {
        let mut s = EndpointSummary {
            mbr_first: Mbr::EMPTY,
            mbr_last: Mbr::EMPTY,
            min_len: usize::MAX,
            max_len: 0,
        };
        for (first, last, len) in rows {
            s.mbr_first.extend(&first);
            s.mbr_last.extend(&last);
            s.min_len = s.min_len.min(len);
            s.max_len = s.max_len.max(len);
        }
        assert!(s.min_len <= s.max_len, "a summary needs at least one row");
        s
    }
}

/// The result of partitioning a dataset.
#[derive(Debug, Clone)]
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

/// `v` as the integer whose order is `f64::total_cmp`'s: the bit flip
/// `total_cmp` itself applies before it compares, so `total_key(a)
/// .cmp(&total_key(b)) == a.total_cmp(&b)` for every `a` and `b`, NaNs and
/// signed zeros included.
#[inline]
fn total_key(v: f64) -> i64 {
    let b = v.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// `idx` sorted by `key(&keys[i])`, the pair compared lexicographically
/// under `f64::total_cmp`, equal pairs in their order in `idx`: the
/// permutation a stable `sort_by` on those comparators gives. It sorts
/// `(key, key, position)` tuples instead, so each comparison reads no
/// point and the position makes every tuple distinct, which lets an
/// unstable sort keep the stable order.
fn sort_keyed(keys: &[Point], idx: &[usize], key: impl Fn(&Point) -> (f64, f64)) -> Vec<usize> {
    let mut tagged: Vec<(i64, i64, usize)> = idx
        .iter()
        .enumerate()
        .map(|(pos, &i)| {
            let (a, b) = key(&keys[i]);
            (total_key(a), total_key(b), pos)
        })
        .collect();
    tagged.sort_unstable();
    tagged.into_iter().map(|(_, _, pos)| idx[pos]).collect()
}

/// Sorts one x-slab by y and cuts it into `rows` row tiles, snapping cuts
/// off equal-y runs.
fn cut_slab(keys: &[Point], slab: &[usize], rows: usize) -> Vec<Vec<usize>> {
    let slab = sort_keyed(keys, slab, |p| (p.y, p.x));
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

/// [`str_tiles_pub`] with the per-slab y-sorts spread over `fan`. The
/// output is identical for every thread count.
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
    let idx = sort_keyed(keys, &idx, |p| (p.x, p.y));
    // Slab boundaries are sequential — each cut depends on the previous —
    // but cheap: only the sorts below them dominate.
    let total = idx.len();
    let mut slab_specs: Vec<(&[usize], usize)> = Vec::with_capacity(slabs);
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
        slab_specs.push((&idx[consumed..consumed + items_here], tiles_here));
        consumed += items_here;
        tiles_done += tiles_here;
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
    str_tiles_pub(lasts, bucket, ng)
        .into_iter()
        .filter(|sub| !sub.is_empty())
        .map(|sub| {
            let rows = sub
                .iter()
                .map(|&i| (firsts[i], lasts[i], trajectories[i].len()));
            let summary = EndpointSummary::of(rows);
            // Dense ids are assigned by the caller, in bucket order.
            Partition::new(0, sub, summary)
        })
        .collect()
}

/// [`str_partitioning`] on `threads` threads: key extraction, the slab
/// y-sorts and the per-bucket second-level tilings fan out. The
/// partitioning is identical for every thread count.
///
/// Partitioning runs on the driver, outside any cluster task, so there is
/// no task to charge helper CPU back to.
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
    let mut rng = SplitMix64(seed);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..trajectories.len() {
        members[(rng.next_u64() % n as u64) as usize].push(i);
    }
    let partitions = members
        .into_iter()
        .filter(|m| !m.is_empty())
        .enumerate()
        .map(|(id, m)| {
            let summary = EndpointSummary::of(m.iter().map(|&i| {
                let t = &trajectories[i];
                (*t.first(), *t.last(), t.len())
            }));
            Partition::new(id, m, summary)
        })
        .collect();
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

    /// The STR tiling as it was before the keyed sorts: stable `sort_by`s
    /// on `total_cmp` comparators over the indices. The reference the
    /// keyed sorts are held to.
    fn reference_str_tiles(keys: &[Point], mut idx: Vec<usize>, n: usize) -> Vec<Vec<usize>> {
        if n == 1 || idx.len() <= 1 {
            let mut out = vec![idx];
            out.resize_with(n.max(1), Vec::new);
            return out;
        }
        let slabs = (n as f64).sqrt().ceil() as usize;
        let (base, extra) = (n / slabs, n % slabs);
        idx.sort_by(|&a, &b| {
            keys[a]
                .x
                .total_cmp(&keys[b].x)
                .then(keys[a].y.total_cmp(&keys[b].y))
        });
        let total = idx.len();
        let (mut consumed, mut tiles_done) = (0, 0);
        let mut out = Vec::new();
        for s in 0..slabs {
            let tiles_here = base + usize::from(s < extra);
            if tiles_here == 0 {
                continue;
            }
            let remaining_tiles = n - tiles_done;
            let remaining_items = total - consumed;
            let items_here = if tiles_here == remaining_tiles {
                remaining_items
            } else {
                let ideal = consumed + (remaining_items * tiles_here).div_ceil(remaining_tiles);
                let max_shift = (remaining_items / remaining_tiles / 4).max(1);
                adjust_cut(&idx, |i| keys[i].x, ideal, max_shift).max(consumed) - consumed
            };
            let mut slab = idx[consumed..consumed + items_here].to_vec();
            consumed += items_here;
            tiles_done += tiles_here;
            slab.sort_by(|&a, &b| {
                keys[a]
                    .y
                    .total_cmp(&keys[b].y)
                    .then(keys[a].x.total_cmp(&keys[b].x))
            });
            let mut start = 0;
            for r in 0..tiles_here {
                let end = if r + 1 == tiles_here {
                    slab.len()
                } else {
                    let remaining_rows = tiles_here - r;
                    let ideal = start + (slab.len() - start).div_ceil(remaining_rows);
                    let max_shift = ((slab.len() - start) / remaining_rows / 4).max(1);
                    adjust_cut(&slab, |i| keys[i].y, ideal, max_shift).clamp(start, slab.len())
                };
                out.push(slab[start..end].to_vec());
                start = end;
            }
        }
        out
    }

    /// Coordinates that stress the total order: both zeros, NaNs of both
    /// signs and two payloads, both infinities, subnormals, and a grid of
    /// few values so that long runs of equal coordinates reach the cut
    /// snapping.
    fn awkward_coord(next: &mut impl FnMut() -> u64) -> f64 {
        const SPECIAL: [f64; 12] = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
        ];
        match next() % 8 {
            0 => SPECIAL[(next() % SPECIAL.len() as u64) as usize],
            1 => {
                // A quiet NaN with a payload, either sign.
                let sign = (next() & 1) << 63;
                f64::from_bits(sign | 0x7ff8_0000_0000_0000 | (next() % 1000 + 1))
            }
            2..=4 => (next() % 5) as f64 - 2.0,
            5 => 0.0,
            _ => (next() % 20_001) as f64 / 100.0 - 100.0,
        }
    }

    /// The keyed sorts give the permutation the retired stable comparator
    /// sorts gave, so every tiling is the old one: `str_tiles_pub` on
    /// shuffled index lists (ties keep their order in the list, not
    /// index order), and `str_partitioning_par` on 1 and 4 threads.
    #[test]
    fn keyed_sorts_tile_as_the_stable_comparator_sorts_did() {
        for seed in 0..12u64 {
            let mut rng = SplitMix64(0x57a1_0000 + seed);
            let mut next = || rng.next_u64();
            for len in [0usize, 1, 2, 5, 64, 700] {
                let keys: Vec<Point> = (0..len)
                    .map(|_| Point::new(awkward_coord(&mut next), awkward_coord(&mut next)))
                    .collect();
                // A shuffled list of a subset of the keys.
                let mut idx: Vec<usize> = (0..len).filter(|_| !next().is_multiple_of(4)).collect();
                for i in (1..idx.len()).rev() {
                    idx.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                for n in [1usize, 2, 3, 4, 7, 9, 16, 32] {
                    assert_eq!(
                        str_tiles_pub(&keys, idx.clone(), n),
                        reference_str_tiles(&keys, idx.clone(), n),
                        "seed {seed} len {len} n {n}"
                    );
                }
            }
            let ts: Vec<Trajectory> = (0..900u64)
                .map(|id| {
                    let mut c = || (awkward_coord(&mut next), awkward_coord(&mut next));
                    Trajectory::from_coords(id, &[c(), c(), c()])
                })
                .collect();
            let firsts: Vec<Point> = ts.iter().map(|t| *t.first()).collect();
            let lasts: Vec<Point> = ts.iter().map(|t| *t.last()).collect();
            for ng in [1usize, 3, 8] {
                let want: Vec<Vec<usize>> =
                    reference_str_tiles(&firsts, (0..ts.len()).collect(), ng)
                        .into_iter()
                        .flat_map(|bucket| reference_str_tiles(&lasts, bucket, ng))
                        .filter(|sub| !sub.is_empty())
                        .collect();
                for threads in [1, 4] {
                    let got: Vec<Vec<usize>> = str_partitioning_par(&ts, ng, threads)
                        .partitions
                        .into_iter()
                        .map(|p| p.members)
                        .collect();
                    assert_eq!(got, want, "seed {seed} ng {ng} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn total_key_orders_as_total_cmp() {
        let mut rng = SplitMix64(0x70_7a1);
        let mut next = || rng.next_u64();
        let vals: Vec<f64> = (0..400).map(|_| awkward_coord(&mut next)).collect();
        for a in &vals {
            for b in &vals {
                assert_eq!(
                    total_key(*a).cmp(&total_key(*b)),
                    a.total_cmp(b),
                    "{a:?} {b:?}"
                );
            }
        }
    }
}
