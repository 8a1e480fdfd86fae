//! The trie-like local index (§4.2.3) and its filter search (§5.3).
//!
//! Every trajectory `T` of a partition is transformed into its sequence of
//! *indexing points* `T_I = (t_1, t_m, t_{P1}, …, t_{PK})` — first point,
//! last point, then the K pivots. The trie groups trajectories level by
//! level on these points with STR tiling (fanout `N_L`); each node stores
//! the MBR of its members' point at that level. Leaves store the member
//! trajectories themselves — the *clustered* layout the paper contrasts
//! with DFT's separated index/bitmap design.
//!
//! The built tree is encoded succinctly (see [`crate::flat`]): one
//! contiguous arena of fixed-width node records, and all member
//! trajectories pooled into shared coordinate/pivot arenas. The build
//! numbers both from the tree: siblings get consecutive node ids, and local
//! ids are handed out in the order in which nodes own members
//! ([`build_pending`]), so a record addresses its children and its members
//! as two ranges and a leaf's members lie next to each other in every
//! arena. The local id of a trajectory is therefore a property of the
//! tree, not of the build input's order; nothing above this crate may
//! assume otherwise. The probe walks that flat layout with an explicit
//! traversal stack ([`ProbeScratch`]); the reference pointer-rich encoding
//! survives as [`crate::pointer::PointerTrie`] for parity tests and
//! memory-density comparisons.
//!
//! The filter search walks the trie depth-first, accumulating the per-level
//! `MinDist` into the threshold budget (§5.3.1) with the ordered-suffix
//! optimization of §5.3.2 (Lemma 5.1). Budget semantics follow the distance
//! function (Appendix A): DTW/ERP subtract, Fréchet compares each level to
//! the constant τ, EDR/LCSS count edits. The ordered-suffix scan itself —
//! over a node's MBR on pivot levels, over a member's own pivots at the
//! leaf — is one function, [`suffix_scan`], streaming the query's
//! coordinates from two contiguous arrays: a stored row's or a prepared
//! query's own, or the scratch's copy of a query that arrives as points.
//!
//! The local join (§6) probes with a leaf of stored rows at a time
//! ([`TrieIndex::probe_rows`]): one walk of the destination per run of rows
//! one source node owns, a rectangle test for the whole run in front of
//! every node, each row's own unchanged cascade behind it.

use crate::fanout::FanOut;
use crate::flat::{EntryRef, FlatNodes, NodeRec, TrajStore};
use crate::partitioner::str_tiles_pub as str_tiles;
use crate::pivot::{select_pivots, PivotStrategy};
use dita_distance::function::IndexMode;
use dita_distance::DistanceFunction;
use dita_trajectory::{Mbr, Point, SoaPoints, SoaView, Trajectory};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::time::Duration;

/// Host parallelism — the default for [`TrieConfig::build_threads`].
fn default_build_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Configuration of the local trie index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrieConfig {
    /// Number of pivot points K (paper default: 4–5 depending on dataset).
    pub k: usize,
    /// Fanout N_L at every level (paper default: 32).
    pub nl: usize,
    /// Stop splitting a node once it holds at most this many trajectories
    /// (the paper stops at 16). Zero means "never stop early": every
    /// trajectory descends the full K+2 levels, as drawn in Figure 5.
    pub leaf_capacity: usize,
    /// Pivot selection strategy (paper finds Neighbor best).
    pub strategy: PivotStrategy,
    /// Unread. It was the side length `D` of the verification cells
    /// (§5.3.3(2)) while verification had a cell bound; it stays a field
    /// only because the benchmark package reads it (ROADMAP item 2).
    pub cell_side: f64,
    /// Threads used for per-trajectory preprocessing and sibling-subtree
    /// construction; 1 builds serially on the calling thread. The built
    /// index is byte-identical for every thread count, so this knob is not
    /// part of the serialized index (older snapshots load with the host
    /// default).
    #[serde(skip_serializing, default = "default_build_threads")]
    pub build_threads: usize,
}

impl Default for TrieConfig {
    fn default() -> Self {
        TrieConfig {
            k: 4,
            nl: 32,
            leaf_capacity: 16,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 0.005,
            build_threads: default_build_threads(),
        }
    }
}

/// A preprocessed trajectory: the raw points plus every precomputed
/// artifact verification needs (pivots, MBR, SoA coordinates).
///
/// This is the build-time intermediate (pooled into a [`TrajStore`] by
/// [`TrieIndex::build`]) and the storage form of the unflushed ingestion
/// tail, where per-row ownership matters more than packing density. The
/// reference [`crate::pointer::PointerTrie`] stores members in this form
/// permanently.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(from = "IndexedTrajectoryRepr")]
pub struct IndexedTrajectory {
    /// The trajectory itself (leaves store data, not pointers — §2.3's
    /// "clustered index" argument).
    pub traj: Trajectory,
    /// 0-based pivot indices, ascending, strictly interior.
    pub pivots: Vec<usize>,
    /// Indexing points: first, last, then pivot points.
    pub index_points: Vec<Point>,
    /// Whole-trajectory MBR (for Lemma 5.4 filtering).
    pub mbr: Mbr,
    /// Structure-of-arrays copy of the points, built once at indexing time
    /// so the verification kernels stream contiguous coordinates.
    pub soa: SoaPoints,
    /// Cached `traj.size_bytes()` — the join planner reads it per edge when
    /// pricing shipments, so it is computed once at indexing time. Derived,
    /// hence not serialized.
    #[serde(skip)]
    pub size_bytes: usize,
}

/// Serialized form of [`IndexedTrajectory`]: every field but the cached
/// size, which is derived on load.
#[derive(serde::Deserialize)]
struct IndexedTrajectoryRepr {
    traj: Trajectory,
    pivots: Vec<usize>,
    index_points: Vec<Point>,
    mbr: Mbr,
    soa: SoaPoints,
}

impl From<IndexedTrajectoryRepr> for IndexedTrajectory {
    fn from(r: IndexedTrajectoryRepr) -> Self {
        let size_bytes = r.traj.size_bytes();
        IndexedTrajectory {
            traj: r.traj,
            pivots: r.pivots,
            index_points: r.index_points,
            mbr: r.mbr,
            soa: r.soa,
            size_bytes,
        }
    }
}

impl IndexedTrajectory {
    /// Precomputes all indexing artifacts for `traj`. `_cell_side` is
    /// unread, like [`TrieConfig::cell_side`], and goes with it.
    pub fn new(traj: Trajectory, k: usize, strategy: PivotStrategy, _cell_side: f64) -> Self {
        let pivots = select_pivots(&traj, k, strategy);
        let mut index_points = Vec::with_capacity(2 + pivots.len());
        index_points.push(*traj.first());
        // A single-point trajectory has first == last as the *same* DTW
        // matrix cell; indexing it twice would let the filter charge its
        // distance twice (unsound when the query is also a single point).
        if traj.len() > 1 {
            index_points.push(*traj.last());
        }
        index_points.extend(pivots.iter().map(|&i| traj.points()[i]));
        let mbr = traj.mbr();
        let soa = SoaPoints::from_points(traj.points());
        let size_bytes = traj.size_bytes();
        IndexedTrajectory {
            traj,
            pivots,
            index_points,
            mbr,
            soa,
            size_bytes,
        }
    }
}

/// Filter-funnel statistics of one trie probe: how much work the filter
/// did and how hard each stage pruned (the paper's "pruning power"),
/// broken down per pruning stage in pipeline order:
///
/// 1. **node-length** — EDR length-interval subtree prune (Appendix A);
/// 2. **node-budget** — the per-level `MinDist` budget cascade
///    (§5.3.1/Lemma 5.1) over node MBRs;
/// 3. **leaf-length** — the exact EDR length bound on stored members;
/// 4. **leaf-opamd** — the exact OPAMD / edit-count test (Lemma 5.1) on a
///    member's own indexing points.
///
/// Survivors of the last stage are exactly the emitted candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Trie nodes whose level check was evaluated.
    pub nodes_visited: usize,
    /// Nodes pruned by the length-interval filter (EDR only).
    pub nodes_pruned_length: usize,
    /// Nodes pruned by the budget cascade over the level MBRs.
    pub nodes_pruned_budget: usize,
    /// Stored trajectories reaching the exact per-trajectory check.
    pub members_checked: usize,
    /// Members rejected by the exact length bound (EDR only).
    pub members_pruned_length: usize,
    /// Members rejected by the OPAMD / edit-count leaf filter.
    pub members_pruned_opamd: usize,
}

impl FilterStats {
    /// Nodes pruned across all node-level stages (subtree skipped).
    pub fn nodes_pruned(&self) -> usize {
        self.nodes_pruned_length + self.nodes_pruned_budget
    }

    /// Members rejected across all leaf-level stages.
    pub fn members_rejected(&self) -> usize {
        self.members_pruned_length + self.members_pruned_opamd
    }

    /// Candidates that survived the whole funnel.
    pub fn candidates(&self) -> usize {
        self.members_checked - self.members_rejected()
    }

    /// Merges another probe's counters into this one.
    pub fn merge(&mut self, other: &FilterStats) {
        self.nodes_visited += other.nodes_visited;
        self.nodes_pruned_length += other.nodes_pruned_length;
        self.nodes_pruned_budget += other.nodes_pruned_budget;
        self.members_checked += other.members_checked;
        self.members_pruned_length += other.members_pruned_length;
        self.members_pruned_opamd += other.members_pruned_opamd;
    }

    /// The counters as an ordered `dita-obs` pruning funnel named `name`
    /// (`trie-filter` for base tries, `delta-filter` for delta segments, so
    /// the two stay distinguishable in the registry). Each stage's
    /// `entered` is the previous stage's survivor count (node stages count
    /// nodes, leaf stages count members); the final stage's survivors equal
    /// [`FilterStats::candidates`].
    pub fn funnel(&self, name: &'static str) -> dita_obs::Funnel {
        use dita_obs::names;
        let mut f = dita_obs::Funnel::new(name);
        f.push_stage(
            names::STAGE_NODE_LENGTH,
            self.nodes_visited as u64,
            self.nodes_pruned_length as u64,
        );
        f.push_stage(
            names::STAGE_NODE_BUDGET,
            (self.nodes_visited - self.nodes_pruned_length) as u64,
            self.nodes_pruned_budget as u64,
        );
        f.push_stage(
            names::STAGE_LEAF_LENGTH,
            self.members_checked as u64,
            self.members_pruned_length as u64,
        );
        f.push_stage(
            names::STAGE_LEAF_OPAMD,
            (self.members_checked - self.members_pruned_length) as u64,
            self.members_pruned_opamd as u64,
        );
        f
    }
}

/// Reusable traversal state for repeated trie probes: the explicit DFS
/// stack the flat-layout walk runs on, two coordinate arrays for a query
/// that arrives as `&[Point]`, and what [`TrieIndex::probe_rows`] keeps per
/// run. Holding one across probes makes them allocation-free once the
/// buffers have grown to their working size.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    stack: Vec<(u32, f64, usize)>,
    qx: Vec<f64>,
    qy: Vec<f64>,
    /// [`TrieIndex::probe_rows`]: the nodes the run's rectangles admitted
    /// and nobody has expanded yet.
    run_nodes: Vec<u32>,
    /// [`TrieIndex::probe_rows`]: the rows alive at each node of the path
    /// to the node being expanded, root frame first.
    alive: Vec<RowState>,
    /// `alive[frames[d]..frames[d + 1]]` are the rows alive below the
    /// path's node at depth `d`; depth 0 is the whole run, alive above the
    /// roots.
    frames: Vec<usize>,
}

impl ProbeScratch {
    /// An empty scratch; the first probes grow it to working size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a probe with a query held as points: empties the stack and
    /// copies the coordinates into the two arrays the walk reads. A caller
    /// that already holds a [`SoaView`] skips the copy
    /// ([`TrieIndex::probe_soa`]).
    pub(crate) fn begin<'a>(
        &'a mut self,
        q: &[Point],
    ) -> (&'a mut Vec<(u32, f64, usize)>, SoaView<'a>) {
        self.stack.clear();
        self.qx.clear();
        self.qx.extend(q.iter().map(|p| p.x));
        self.qy.clear();
        self.qy.extend(q.iter().map(|p| p.y));
        let query = SoaView {
            xs: &self.qx,
            ys: &self.qy,
        };
        (&mut self.stack, query)
    }
}

/// One row of a run, as far down the destination trie as the walk has
/// carried it: the `(budget, suffix)` its own [`node_admits`] cascade
/// handed down.
#[derive(Debug, Clone, Copy)]
struct RowState {
    sid: u32,
    budget: f64,
    suffix: usize,
}

/// Independent running minima [`suffix_scan`] keeps, so the minimum has no
/// loop-carried chain and the compiler can hold the lanes in vector
/// registers.
const LANES: usize = 4;

/// The ordered-suffix scan of Lemma 5.1 (§5.3.2): over the query points
/// `q[suffix..]`, the smallest `dist_sq(x, y)` — the squared distance of a
/// query point to the target, a node's MBR on pivot levels or a member's
/// own pivot point at the leaf — and the first index whose squared distance
/// is within `budget_sq`: the points before it cannot host this pivot
/// within the budget, so they are discarded for the deeper pivots too. When
/// no point qualifies the anchor stays at `suffix`.
///
/// Two phases. The minimum runs over all of the suffix branch-free, one
/// running minimum per lane, over contiguous coordinates. The anchor is
/// looked for afterwards, by a rescan that stops at the first hit (a few
/// elements in), and only when the minimum shows there is one — otherwise
/// the level is pruned and nobody reads it. The callers pass the very
/// functions the one-pass scalar loops called per element
/// ([`Mbr::min_dist_point_sq`], [`Point::dist_sq`]), comparisons treat a
/// NaN as those loops did (never smaller, never within budget), and the
/// minimum of the remaining values does not depend on the order they are
/// folded in — so both results are those loops' bit for bit (they are kept
/// as the reference in this module's tests).
#[inline]
pub(crate) fn suffix_scan(
    q: SoaView<'_>,
    suffix: usize,
    budget_sq: f64,
    dist_sq: impl Fn(f64, f64) -> f64,
) -> (f64, usize) {
    let (xs, ys) = (&q.xs[suffix..], &q.ys[suffix..]);
    let smaller = |d: f64, best: f64| if d < best { d } else { best };

    let mut lanes = [f64::INFINITY; LANES];
    let (mut cx, mut cy) = (xs.chunks_exact(LANES), ys.chunks_exact(LANES));
    for (x, y) in cx.by_ref().zip(cy.by_ref()) {
        for l in 0..LANES {
            lanes[l] = smaller(dist_sq(x[l], y[l]), lanes[l]);
        }
    }
    let mut best_sq = lanes.into_iter().fold(f64::INFINITY, smaller);
    for (&x, &y) in cx.remainder().iter().zip(cy.remainder()) {
        best_sq = smaller(dist_sq(x, y), best_sq);
    }

    let first_ok = if best_sq <= budget_sq {
        xs.iter()
            .zip(ys)
            .position(|(&x, &y)| dist_sq(x, y) <= budget_sq)
            .map_or(suffix, |j| suffix + j)
    } else {
        suffix
    };
    (best_sq, first_ok)
}

/// The scratch [`TrieIndex::candidates_batch`] takes. The batch is a loop
/// of single-query probes, so this is the single-query scratch; the name
/// survives for the benchmark's per-layer run, which imports it.
pub type BatchProbeScratch = ProbeScratch;

/// Budget semantics of one probe, resolved once per probe from the
/// [`DistanceFunction`] so the per-node and per-member matches carry no
/// impossible `Scan` arm — Scan-mode probes return before any descent.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Walk {
    /// DTW: per-level distances subtract from the τ budget.
    Additive,
    /// Fréchet: every level is compared against the constant τ.
    Max,
    /// EDR/LCSS: levels farther than ϵ cost one edit from a ⌊τ⌋ budget.
    Edit {
        /// The matching tolerance ϵ.
        eps: f64,
        /// LCSS band half-width δ; `None` for EDR.
        delta: Option<usize>,
        /// Whether length-interval pruning (EDR-only) applies.
        edr: bool,
    },
}

impl Walk {
    /// The walk semantics for `func`; `None` when the function's index
    /// mode is `Scan` (no trie descent — ERP's global alignment gives the
    /// per-level budgets nothing sound to charge).
    pub(crate) fn of(func: &DistanceFunction) -> Option<Walk> {
        match func.index_mode() {
            IndexMode::Scan => None,
            IndexMode::Additive => Some(Walk::Additive),
            IndexMode::Max => Some(Walk::Max),
            IndexMode::EditCount { eps, .. } => Some(Walk::Edit {
                eps,
                delta: match func {
                    DistanceFunction::Lcss { delta, .. } => Some(*delta),
                    _ => None,
                },
                edr: matches!(func, DistanceFunction::Edr { .. }),
            }),
        }
    }

    /// Whether the EDR length filters apply.
    #[inline]
    pub(crate) fn is_edr(&self) -> bool {
        matches!(self, Walk::Edit { edr: true, .. })
    }
}

/// EDR length filter (Appendix A) on a subtree: every member has a length
/// in `[node_min, node_max]` and every query one in `[q_min, q_max]` (a
/// single query: its length twice; a run of rows: their range); `true` when
/// `|m − n| > τ` holds for the whole of both intervals. Compared against
/// the *original* τ — an edit already charged for a missed pivot may be the
/// very deletion that explains the length gap, so the two budgets must not
/// be combined.
#[inline]
fn edr_lengths_apart(node_min: u32, node_max: u32, q_min: f64, q_max: f64, tau: f64) -> bool {
    node_min as f64 > q_max + tau || (node_max as f64) < q_min - tau
}

/// Evaluates one node's payload against the query: the EDR
/// length-interval prune, the per-level MinDist (with the Lemma 5.1
/// ordered-suffix scan on pivot levels) and the per-walk budget update.
/// Returns the `(budget, suffix)` to carry into the subtree — the caller
/// pushes the node with them — or `None` when the node is pruned for this
/// query. Prunes are recorded into `stats` under the stage that caused
/// them.
///
/// Shared by the flat probe and the reference
/// [`crate::pointer::PointerTrie`] probe, so the two layouts differ only
/// in encoding, never in pruning decisions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn node_admits(
    mbr: &Mbr,
    depth: u8,
    node_min_len: u32,
    node_max_len: u32,
    q: SoaView<'_>,
    tau: f64,
    budget: f64,
    suffix: usize,
    walk: &Walk,
    stats: &mut FilterStats,
) -> Option<(f64, usize)> {
    stats.nodes_visited += 1;
    let n = q.len();
    if walk.is_edr() && edr_lengths_apart(node_min_len, node_max_len, n as f64, n as f64, tau) {
        stats.nodes_pruned_length += 1;
        return None;
    }
    // Distance of the query to this node's MBR, per level semantics.
    let (d, new_suffix) = match (depth, walk) {
        (1, Walk::Additive | Walk::Max) => (mbr.min_dist_point(&q.point(0)), suffix),
        (2, Walk::Additive | Walk::Max) => (mbr.min_dist_point(&q.point(n - 1)), suffix),
        (_, Walk::Edit { .. }) => {
            // Edit-family: any query point may absorb this element.
            let d = (0..n)
                .map(|j| mbr.min_dist_point_sq(&q.point(j)))
                .fold(f64::INFINITY, f64::min)
                .sqrt();
            (d, 0)
        }
        (_, Walk::Additive | Walk::Max) => {
            // Pivot level: ordered-suffix scan (Lemma 5.1).
            let (best_sq, first_ok) = suffix_scan(q, suffix, budget * budget, |x, y| {
                mbr.min_dist_point_sq(&Point::new(x, y))
            });
            (best_sq.sqrt(), first_ok)
        }
    };

    let new_budget = match *walk {
        Walk::Additive => {
            if d > budget {
                stats.nodes_pruned_budget += 1;
                return None;
            }
            budget - d
        }
        Walk::Max => {
            if d > budget {
                stats.nodes_pruned_budget += 1;
                return None;
            }
            budget
        }
        Walk::Edit { eps, delta, .. } => {
            if d > eps {
                // LCSS only pays for an unmatched T element when the
                // trajectory is the shorter side (distance = min(m,n) − L).
                let charge = delta.is_none() || (node_max_len as usize) <= n;
                if charge {
                    if budget < 1.0 {
                        stats.nodes_pruned_budget += 1;
                        return None;
                    }
                    budget - 1.0
                } else {
                    budget
                }
            } else {
                budget
            }
        }
    };
    Some((new_budget, new_suffix))
}

/// The exact per-member leaf filter, on the member's own precomputed
/// artifacts: the ordered-pivot accumulated-minimum-distance test of
/// Lemma 5.1 under Additive/Max budgets, or the edit-family bound under
/// [`Walk::Edit`]. Sound: the tested bound never exceeds `f(T, Q)`.
///
/// Layout-agnostic, shared by the flat and pointer probes. The
/// Additive/Max walks read nothing of the member but its indexing points;
/// what only the edit family needs — length, pivot positions, coordinates —
/// comes from `edit_parts`, called on that arm alone, so a DTW or Fréchet
/// probe touches one arena per member.
pub(crate) fn member_admits<'m, I: Iterator<Item = usize>>(
    q: SoaView<'_>,
    tau: f64,
    walk: &Walk,
    index_points: &[Point],
    edit_parts: impl FnOnce() -> (usize, I, SoaView<'m>),
) -> bool {
    let pts = index_points;
    let n = q.len();
    let (first, last) = (q.point(0), q.point(n - 1));
    match *walk {
        Walk::Additive => {
            let mut budget = tau - pts[0].dist(&first);
            if budget < 0.0 {
                return false;
            }
            if pts.len() > 1 {
                budget -= pts[1].dist(&last);
                if budget < 0.0 {
                    return false;
                }
            }
            // Ordered suffix scan over the pivots.
            let mut suffix = 0usize;
            for p in &pts[2.min(pts.len())..] {
                let (best_sq, first_ok) = suffix_scan(q, suffix, budget * budget, |x, y| {
                    p.dist_sq(&Point::new(x, y))
                });
                budget -= best_sq.sqrt();
                if budget < 0.0 {
                    return false;
                }
                suffix = first_ok;
            }
            true
        }
        Walk::Max => {
            if pts[0].dist(&first) > tau {
                return false;
            }
            if pts.len() > 1 && pts[1].dist(&last) > tau {
                return false;
            }
            let tau_sq = tau * tau;
            let mut suffix = 0usize;
            for p in &pts[2.min(pts.len())..] {
                let (best_sq, first_ok) =
                    suffix_scan(q, suffix, tau_sq, |x, y| p.dist_sq(&Point::new(x, y)));
                if best_sq > tau_sq {
                    return false;
                }
                suffix = first_ok;
            }
            true
        }
        Walk::Edit { eps, delta, .. } => {
            let (len, pivot_positions, soa) = edit_parts();
            edit_family_admits(q, tau, eps, delta, len, pts, pivot_positions, soa)
        }
    }
}

/// Edit-family (EDR/LCSS) leaf filter. Both distances are bounded below
/// by the number of *shorter-side* points with no admissible partner:
///
/// * EDR: every T point (and symmetrically every Q point) without an
///   ϵ-close partner costs one edit.
/// * LCSS distance `min(m, n) − L`: every shorter-side point without an
///   (ϵ, δ)-band partner stays unmatched.
///
/// When the member is the shorter side its precomputed indexing points
/// are checked (band-restricted for LCSS — the paper's "part of the
/// query trajectory which fulfills the index constraint"); when the
/// query is shorter, its points are scanned with an early exit after
/// τ + 1 misses, so dissimilar pairs cost O(τ·δ) or O(τ·m), not a full
/// DP.
#[allow(clippy::too_many_arguments)]
pub(crate) fn edit_family_admits<I: Iterator<Item = usize>>(
    q: SoaView<'_>,
    tau: f64,
    eps: f64,
    delta: Option<usize>,
    len: usize,
    index_points: &[Point],
    pivot_positions: I,
    soa: SoaView<'_>,
) -> bool {
    let m = len;
    let n = q.len();
    let eps_sq = eps * eps;
    let lcss = delta.is_some();
    let cap = tau.floor() as usize;

    // Member-side bound: each indexing point (a distinct T point) with
    // no admissible partner forces one unmatched T point. Sound for EDR
    // always; for LCSS only when T is the shorter side.
    if !lcss || m <= n {
        let mut member_misses = 0usize;
        let mut last_pos = usize::MAX;
        let positions = std::iter::once(0)
            .chain(std::iter::once(m - 1))
            .chain(pivot_positions);
        for (pos, p) in positions.zip(index_points.iter()) {
            if pos == last_pos {
                continue; // m == 1: first and last are the same point
            }
            last_pos = pos;
            let mut range = match delta {
                // The paper's LCSS adaptation: only the part of the
                // query fulfilling the index constraint can match.
                Some(d) => pos.saturating_sub(d)..(pos + d + 1).min(n),
                None => 0..n,
            };
            let close = range.any(|j| p.dist_sq(&q.point(j)) <= eps_sq);
            if !close {
                member_misses += 1;
                if member_misses > cap {
                    return false;
                }
            }
        }
    }

    // Query-side bound: each query point with no admissible partner in
    // T forces one unmatched Q point (an edit for EDR; an unmatched
    // shorter-side point for LCSS when Q is shorter). NOT additive with
    // the member-side count — one substitution covers one point of each
    // side — so the two bounds are taken independently.
    if n < m {
        let mut query_misses = 0usize;
        for j in 0..n {
            let qj = q.point(j);
            let mut range = match delta {
                Some(d) => j.saturating_sub(d)..(j + d + 1).min(m),
                None => 0..m,
            };
            let close = range.any(|ti| {
                let dx = soa.xs[ti] - qj.x;
                let dy = soa.ys[ti] - qj.y;
                dx * dx + dy * dy <= eps_sq
            });
            if !close {
                query_misses += 1;
                if query_misses > cap {
                    return false;
                }
            }
        }
    }
    true
}

/// The local trie index of one partition, in the succinct flat encoding:
/// a [`FlatNodes`] arena for the tree and a [`TrajStore`] pooling every
/// member's data in the tree's leaf order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrieIndex {
    config: TrieConfig,
    nodes: FlatNodes,
    /// Number of root nodes; they are the records `0..roots`.
    roots: u32,
    store: TrajStore,
}

/// One STR tile of a trie level, split but not yet recursed into: the node
/// payload plus the member set that continues to the next level.
pub(crate) struct TileSpec {
    mbr: Mbr,
    depth: u8,
    /// Members stored at this node (all of them for leaves, the stopped
    /// ones otherwise), as local ids.
    node_members: Vec<u32>,
    /// Members descending to the next level (empty for leaves).
    deeper: Vec<usize>,
    max_len: u32,
    min_len: u32,
}

/// A fully built subtree in owned form. Subtrees are constructed
/// independently (possibly on different threads), then numbered and
/// flattened into the node arena serially in tile order, which makes the
/// arena layout — and therefore the serialized index — independent of the
/// thread count.
pub(crate) struct PendingNode {
    pub(crate) mbr: Mbr,
    pub(crate) depth: u8,
    pub(crate) children: Vec<PendingNode>,
    /// The members stored at this node as positions in the build input —
    /// what [`build_subtree`] leaves here and [`cluster_members`] drains.
    stored: Vec<u32>,
    /// The members stored at this node as local ids: one ascending run.
    pub(crate) members: Range<u32>,
    pub(crate) max_len: u32,
    pub(crate) min_len: u32,
}

/// Splits `members` on their indexing point at `depth` (1-based) into STR
/// tiles, deciding for each tile whether it becomes a leaf.
pub(crate) fn split_tiles(
    data: &[IndexedTrajectory],
    config: &TrieConfig,
    members: Vec<usize>,
    depth: usize,
) -> Vec<TileSpec> {
    if members.is_empty() {
        return Vec::new();
    }
    let keys: Vec<Point> = members
        .iter()
        .map(|&i| data[i].index_points[depth - 1])
        .collect();
    let local: Vec<usize> = (0..members.len()).collect();
    let tiles = str_tiles(&keys, local, config.nl.min(members.len()));
    let mut out = Vec::new();
    for tile in tiles {
        if tile.is_empty() {
            continue;
        }
        let mbr = Mbr::from_points(tile.iter().map(|&li| &keys[li]));
        let tile_members: Vec<usize> = tile.iter().map(|&li| members[li]).collect();
        let max_len = tile_members
            .iter()
            .map(|&i| data[i].traj.len() as u32)
            .max()
            .unwrap_or(0);
        let min_len = tile_members
            .iter()
            .map(|&i| data[i].traj.len() as u32)
            .min()
            .unwrap_or(0);

        // Members whose indexing points end here stay in this node; the
        // rest continue to the next level unless the node is small enough
        // to become a leaf.
        let deeper: Vec<usize> = tile_members
            .iter()
            .copied()
            .filter(|&i| data[i].index_points.len() > depth)
            .collect();
        let is_leaf = tile_members.len() <= config.leaf_capacity || deeper.is_empty();
        let (node_members, deeper) = if is_leaf {
            (tile_members.iter().map(|&i| i as u32).collect(), Vec::new())
        } else {
            let stopped: Vec<u32> = tile_members
                .iter()
                .copied()
                .filter(|&i| data[i].index_points.len() <= depth)
                .map(|i| i as u32)
                .collect();
            (stopped, deeper)
        };
        out.push(TileSpec {
            mbr,
            depth: depth as u8,
            node_members,
            deeper,
            max_len,
            min_len,
        });
    }
    out
}

/// Recursively builds the subtree rooted at one tile.
pub(crate) fn build_subtree(
    data: &[IndexedTrajectory],
    config: &TrieConfig,
    spec: TileSpec,
) -> PendingNode {
    let depth = spec.depth as usize;
    let children = split_tiles(data, config, spec.deeper, depth + 1)
        .into_iter()
        .map(|c| build_subtree(data, config, c))
        .collect();
    PendingNode {
        mbr: spec.mbr,
        depth: spec.depth,
        children,
        stored: spec.node_members,
        members: 0..0,
        max_len: spec.max_len,
        min_len: spec.min_len,
    }
}

/// Hands out the local ids: `order[i]` becomes the build-input position of
/// the member with local id `i`. Ids follow the order in which nodes own
/// members — a sibling run's own members node by node, then each sibling's
/// subtree depth first, which is the order [`flatten`] numbers the nodes
/// in — so every node's members are one ascending run, sibling leaves'
/// runs are adjacent, and the runs tile `0..len` in node order. A function
/// of the pending tree alone, so of the input and the configuration, never
/// of thread timing.
fn cluster_members(level: &mut [PendingNode], order: &mut Vec<u32>) {
    for node in level.iter_mut() {
        let first = order.len() as u32;
        order.extend(std::mem::take(&mut node.stored));
        node.members = first..order.len() as u32;
    }
    for node in level {
        cluster_members(&mut node.children, order);
    }
}

/// Number of node records a run of pending subtrees will need, so the
/// arena can be allocated once with its exact capacity.
fn count_pending(level: &[PendingNode]) -> usize {
    level.iter().map(|p| 1 + count_pending(&p.children)).sum()
}

/// Flattens a run of pending siblings into the node arena — the siblings
/// as consecutive records, then each one's subtree depth first, in tile
/// order — and returns the run's node ids. Serial by construction, so the
/// arena bytes cannot depend on the build thread count.
fn flatten(nodes: &mut FlatNodes, level: Vec<PendingNode>) -> Range<u32> {
    let first = nodes.len() as u32;
    for p in &level {
        nodes.push(p.mbr, p.depth, p.min_len, p.max_len, p.members.clone());
    }
    let ids = first..nodes.len() as u32;
    for (id, p) in ids.clone().zip(level) {
        let kids = flatten(nodes, p.children);
        nodes.set_children(id, kids);
    }
    ids
}

impl TrieIndex {
    /// Builds the index over a partition's trajectories (Algorithm 1's
    /// `LocalIndex`), using [`TrieConfig::build_threads`] threads.
    pub fn build(trajectories: Vec<Trajectory>, config: TrieConfig) -> Self {
        Self::build_timed(trajectories, config).0
    }

    /// Like [`TrieIndex::build`], additionally returning the CPU time burned
    /// by helper threads (zero for serial builds). Callers running inside a
    /// cluster task charge it back via `dita_cluster::charge_compute` so the
    /// simulated cost model sees the work, not the host parallelism.
    pub fn build_timed(trajectories: Vec<Trajectory>, config: TrieConfig) -> (Self, Duration) {
        let (data, order, pending, helper) = build_pending(trajectories, &config);
        let mut nodes = FlatNodes::with_capacity(count_pending(&pending));
        let roots = flatten(&mut nodes, pending).end;
        let store = TrajStore::from_indexed(data, &order);
        let index = TrieIndex {
            config,
            nodes,
            roots,
            store,
        };
        (index, helper)
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &TrieConfig {
        &self.config
    }

    /// Number of indexed trajectories.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` when no trajectories are indexed.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Access a stored trajectory by local id.
    ///
    /// # Panics
    /// Accessors of the returned handle panic when `id` is out of range;
    /// worker-executed code handed ids from outside the trie should use
    /// [`TrieIndex::try_get`] instead.
    #[inline]
    pub fn get(&self, id: u32) -> EntryRef<'_> {
        self.store.entry(id as usize)
    }

    /// [`TrieIndex::get`] without the panic: `None` when `id` is out of
    /// range. The checked form worker tasks use so a corrupted candidate
    /// list surfaces as a retryable `TaskError` instead of unwinding the
    /// worker.
    #[inline]
    pub fn try_get(&self, id: u32) -> Option<EntryRef<'_>> {
        self.store.try_entry(id as usize)
    }

    /// Iterates over all stored trajectories in local-id order — the
    /// tree's leaf order, not the build input's.
    pub fn entries(&self) -> impl Iterator<Item = EntryRef<'_>> {
        self.store.iter()
    }

    /// The pooled member store.
    pub fn store(&self) -> &TrajStore {
        &self.store
    }

    /// Allocated heap size in bytes (capacity, not length — reserve slack
    /// is real memory), *excluding* the raw trajectory payload itself
    /// (reported separately in the Table 5 experiment).
    pub fn index_size_bytes(&self) -> usize {
        self.nodes.size_bytes() + (self.store.size_bytes() - self.store.data_bytes())
    }

    /// Total allocated size including the clustered trajectory payload.
    pub fn size_bytes(&self) -> usize {
        self.nodes.size_bytes() + self.store.size_bytes()
    }

    /// The filter step (Algorithm 2's `DITA-Search-Filter`): local ids of
    /// every trajectory that may be within `tau` of `q` under `func`.
    ///
    /// Sound: never drops a true answer. The returned candidates still need
    /// verification.
    pub fn candidates(&self, q: &[Point], tau: f64, func: &DistanceFunction) -> Vec<u32> {
        self.candidates_with_stats(q, tau, func).0
    }

    /// Like [`TrieIndex::candidates`] but also reports the filter funnel.
    pub fn candidates_with_stats(
        &self,
        q: &[Point],
        tau: f64,
        func: &DistanceFunction,
    ) -> (Vec<u32>, FilterStats) {
        let mut scratch = ProbeScratch::new();
        self.candidates_with_scratch(q, tau, func, &mut scratch)
    }

    /// [`TrieIndex::candidates_with_stats`] with a caller-held
    /// [`ProbeScratch`], so repeated probes reuse the traversal stack.
    pub fn candidates_with_scratch(
        &self,
        q: &[Point],
        tau: f64,
        func: &DistanceFunction,
        scratch: &mut ProbeScratch,
    ) -> (Vec<u32>, FilterStats) {
        let mut stats = FilterStats::default();
        let mut out = Vec::new();
        self.probe(q, tau, func, &mut stats, scratch, |m| out.push(m));
        out.sort_unstable();
        out.dedup();
        (out, stats)
    }

    /// Counts the candidates [`TrieIndex::candidates`] would return without
    /// materializing them — the allocation-free probe the join planner's
    /// `comp` sampling (§6.2) runs per edge. Every stored trajectory lives
    /// in exactly one trie node, so the emitted count needs no dedup and
    /// always equals `candidates().len()`.
    pub fn candidate_count(
        &self,
        q: &[Point],
        tau: f64,
        func: &DistanceFunction,
        scratch: &mut ProbeScratch,
    ) -> usize {
        let mut stats = FilterStats::default();
        let mut count = 0usize;
        self.probe(q, tau, func, &mut stats, scratch, |_| count += 1);
        count
    }

    /// [`TrieIndex::candidates_with_scratch`] for each `(queries[i],
    /// taus[i])` in turn, on one scratch: one `(candidate ids, filter
    /// funnel)` pair per query. There is no shared walk: on the 200k-row
    /// benchmark table one saved at most 7 % of the filter layer and
    /// nothing end to end (EXPERIMENTS.md, "Throughput").
    pub fn candidates_batch(
        &self,
        queries: &[&[Point]],
        taus: &[f64],
        func: &DistanceFunction,
        scratch: &mut BatchProbeScratch,
    ) -> Vec<(Vec<u32>, FilterStats)> {
        assert_eq!(queries.len(), taus.len(), "one tau per query");
        queries
            .iter()
            .zip(taus)
            .map(|(q, &tau)| self.candidates_with_scratch(q, tau, func, scratch))
            .collect()
    }

    /// The single-query probe for a query already held as two coordinate
    /// arrays — a stored row read in place, a search's prepared query: no
    /// copy, no list. Calls `emit` for every member that survives the whole
    /// funnel, in traversal order (unsorted, free of duplicates: every
    /// member lives in one node), and returns the funnel. The ids are the
    /// ones [`TrieIndex::candidates`] returns for the same points.
    pub fn probe_soa<F: FnMut(u32)>(
        &self,
        q: SoaView<'_>,
        tau: f64,
        func: &DistanceFunction,
        scratch: &mut ProbeScratch,
        emit: F,
    ) -> FilterStats {
        let mut stats = FilterStats::default();
        scratch.stack.clear();
        self.walk_query(q, tau, func, &mut stats, &mut scratch.stack, emit);
        stats
    }

    /// [`TrieIndex::probe_soa`] for a query that arrives as points: the
    /// scratch copies them into its two arrays first.
    fn probe<F: FnMut(u32)>(
        &self,
        q: &[Point],
        tau: f64,
        func: &DistanceFunction,
        stats: &mut FilterStats,
        scratch: &mut ProbeScratch,
        emit: F,
    ) {
        let (stack, query) = scratch.begin(q);
        self.walk_query(query, tau, func, stats, stack, emit);
    }

    /// The one single-query filter traversal: walks the flat node arena
    /// with an explicit stack, [`node_admits`] on every node reached and
    /// [`member_admits`] on every member of an admitted node.
    fn walk_query<F: FnMut(u32)>(
        &self,
        query: SoaView<'_>,
        tau: f64,
        func: &DistanceFunction,
        stats: &mut FilterStats,
        stack: &mut Vec<(u32, f64, usize)>,
        mut emit: F,
    ) {
        if query.is_empty() || tau < 0.0 {
            return;
        }
        let Some(walk) = Walk::of(func) else {
            // Scan mode (ERP): the trie's per-level budgets are unsound, so
            // every stored trajectory is a candidate and nothing descends.
            for id in 0..self.store.len() as u32 {
                emit(id);
            }
            return;
        };
        let edr = walk.is_edr();
        // The run of siblings to admit next, with the budget and suffix
        // their parent hands down: the roots first, then the children of
        // every node popped.
        let mut level = (0..self.roots, tau, 0usize);
        loop {
            let (ids, budget, suffix) = level;
            for (id, rec) in ids.clone().zip(self.nodes.recs(ids)) {
                if let Some((budget, suffix)) = node_admits(
                    &rec.mbr,
                    rec.depth,
                    rec.min_len,
                    rec.max_len,
                    query,
                    tau,
                    budget,
                    suffix,
                    &walk,
                    stats,
                ) {
                    stack.push((id, budget, suffix));
                }
            }
            let Some((node_id, budget, suffix)) = stack.pop() else {
                return;
            };
            let rec = self.nodes.rec(node_id);
            for m in rec.members() {
                // Leaf emission runs the exact per-trajectory OPAMD filter
                // (Lemma 5.1) over the member's own indexing points — the
                // node MBRs above only bounded groups.
                if self.member_survives(m, query, tau, &walk, edr, stats) {
                    emit(m);
                }
            }
            level = (rec.children(), budget, suffix);
        }
    }

    /// The two leaf stages on stored member `m`, counted into `stats`: the
    /// exact EDR length bound, then [`member_admits`].
    #[inline]
    fn member_survives(
        &self,
        m: u32,
        query: SoaView<'_>,
        tau: f64,
        walk: &Walk,
        edr: bool,
        stats: &mut FilterStats,
    ) -> bool {
        stats.members_checked += 1;
        let e = self.store.entry(m as usize);
        if edr && dita_distance::bounds::length_bound_edr(e.len(), query.len(), tau) {
            stats.members_pruned_length += 1;
            return false;
        }
        let admits = member_admits(query, tau, walk, e.index_points(), || {
            (e.len(), e.pivots().iter().map(|&p| p as usize), e.soa())
        });
        stats.members_pruned_opamd += !admits as usize;
        admits
    }

    /// Probes this trie with a *set of stored rows* of `src` — the local
    /// join's candidate generator (§6): calls `emit(sid, c)` for every row
    /// `sid` of `rows` (ascending local ids of `src`) and every member `c`
    /// that [`TrieIndex::probe_soa`] emits for that row's points, each pair
    /// once, and returns the funnel. When `src` is this very trie (a
    /// self-join's diagonal edge) only the pairs `c ≥ sid` are emitted: row
    /// `c` is probed too and finds `(c, sid)` itself.
    ///
    /// **One walk per run.** `rows` is cut into the runs one node of `src`
    /// owns: adjacent ids, adjacent memory in every arena, and — being one
    /// STR tile of the source — near each other in space. A run is
    /// summarised by three rectangles read from the store ([`RunRects`]) and
    /// this trie is walked once for the whole run. In front of every node
    /// stands one rectangle test, [`run_admits`]; behind it each row
    /// still alive at the parent runs its own unchanged [`node_admits`]
    /// with the `(budget, suffix)` its own cascade handed down, and at a
    /// node that owns members each row alive there runs the unchanged leaf
    /// stages per member.
    ///
    /// **Why the pairs are exactly the per-row probe's.** Behind the
    /// rectangle test everything a row meets is its own single-query probe:
    /// the same functions on the same operands in the same order. So it is
    /// enough that the rectangle test rejects a node only if *every* row
    /// alive at the parent would reject it itself, and that is Lemma 5.1
    /// with `MinDist(MBR, MBR) ≤ MinDist(point, MBR)`, which also holds
    /// term by term in `f64`:
    ///
    /// * *Distance.* A row's first point lies in the run's first-point
    ///   rectangle `R`, so `node.min.x − p.x ≥ node.min.x − R.max.x` and
    ///   `p.x − node.max.x ≥ R.min.x − node.max.x` — a correctly rounded
    ///   subtraction is monotone in both operands — and likewise in `y`.
    ///   Clamping at zero, squaring a non-negative value, adding and `sqrt`
    ///   are monotone too, hence [`Mbr::min_dist_mbr`]`(R, node)` `≤`
    ///   [`Mbr::min_dist_point`]`(node, p)` as computed. The same holds for
    ///   the last points, and on pivot and edit levels for every point of
    ///   every row against the union of the rows' whole-trajectory MBRs —
    ///   so also for the minimum a row takes over any suffix of its points.
    /// * *Budget.* The rectangle test compares against the largest budget
    ///   any alive row holds (a NaN threshold makes every budget NaN, and
    ///   a NaN compares false on both sides: nothing is pruned). `Additive`
    ///   and `Max` reject on `d > budget`: `d_row ≥ d_run > budget_max ≥
    ///   budget_row`. `Edit` rejects when the level is charged and no edit
    ///   is left: `d_row ≥ d_run > ϵ`, LCSS charges a row of `n` points
    ///   when `node.max_len ≤ n` and the test asks `node.max_len ≤ min n`,
    ///   and `budget_row ≤ budget_max < 1`.
    /// * *EDR length interval.* The test asks `node.min_len > max n + τ` or
    ///   `node.max_len < min n − τ`; `n ↦ n + τ` and `n ↦ n − τ` are
    ///   monotone as computed, so every row's own interval test fails too.
    ///
    /// **Why `c ≥ sid` may move in front of the test.** The per-row probe
    /// tested every member of an admitted node and the join dropped
    /// `c < sid` afterwards; whether `(sid, c)` survives does not depend on
    /// any other pair, so skipping the test of a pair that would be dropped
    /// changes no pair that is kept. A node's members are one ascending id
    /// range, so the rule is a lower end for the member loop, and a node
    /// whose range ends at or before the run's first row is skipped without
    /// a test.
    ///
    /// **Why a row need not be tested against itself.** Both leaf stages
    /// measure the row against its own points: the lengths are equal, and
    /// every distance [`member_admits`] takes — first to first, last to
    /// last, a pivot to the suffix that still holds the pivot's own
    /// position, an indexing point to the band around its own position — is
    /// a point's to itself, `+0.0`, so no budget shrinks and no edit is
    /// charged (with non-finite coordinates the distances are NaN, which
    /// rejects nothing either). Whether the row gets as far as its own node
    /// is still decided by its own cascade.
    ///
    /// The funnel counts what this walk does: `nodes_visited` rectangle
    /// tests (run × node), a node as pruned when the rectangles reject it
    /// or no row survives its own test, `members_checked` (row, member)
    /// pairs that reach the leaf stages. Its survivors are the pairs
    /// emitted.
    pub fn probe_rows<F: FnMut(u32, u32)>(
        &self,
        src: &TrieIndex,
        rows: &[u32],
        tau: f64,
        func: &DistanceFunction,
        scratch: &mut ProbeScratch,
        mut emit: F,
    ) -> FilterStats {
        let mut stats = FilterStats::default();
        if tau < 0.0 {
            return stats;
        }
        let diagonal = std::ptr::eq(self, src);
        let Some(walk) = Walk::of(func) else {
            // Scan mode (ERP): every stored trajectory is a candidate of
            // every row.
            let len = self.store.len() as u32;
            for &sid in rows {
                let from = if diagonal { sid.min(len) } else { 0 };
                stats.members_checked += (len - from) as usize;
                for c in from..len {
                    emit(sid, c);
                }
            }
            return stats;
        };
        // A node's members are one ascending range and the ranges tile
        // `0..len` in node order: one pass over the source's nodes cuts the
        // ascending `rows` into runs.
        let mut rest = rows;
        for rec in src.nodes.recs(0..src.nodes.len() as u32) {
            if rest.is_empty() {
                break;
            }
            let end = rec.members().end;
            let (run, tail) = rest.split_at(rest.partition_point(|&r| r < end));
            rest = tail;
            if !run.is_empty() {
                self.probe_run(
                    src, run, tau, &walk, diagonal, scratch, &mut stats, &mut emit,
                );
            }
        }
        stats
    }

    /// One walk of this trie for one run of `src`'s rows (see
    /// [`TrieIndex::probe_rows`]).
    #[allow(clippy::too_many_arguments)]
    fn probe_run<F: FnMut(u32, u32)>(
        &self,
        src: &TrieIndex,
        run: &[u32],
        tau: f64,
        walk: &Walk,
        diagonal: bool,
        scratch: &mut ProbeScratch,
        stats: &mut FilterStats,
        emit: &mut F,
    ) {
        let rects = run_rects(&src.store, run);
        let edr = walk.is_edr();
        // The first member row `sid` is paired with: on a diagonal edge the
        // members before it are left to those rows' own probes.
        let lowest = |sid: u32| if diagonal { sid } else { 0 };
        let ProbeScratch {
            run_nodes,
            alive,
            frames,
            ..
        } = scratch;
        run_nodes.clear();
        alive.clear();
        frames.clear();
        // Above the roots the whole run is alive, as a single-query probe
        // starts: the full budget, no suffix discarded.
        frames.push(0);
        alive.extend(run.iter().map(|&sid| RowState {
            sid,
            budget: tau,
            suffix: 0,
        }));
        frames.push(alive.len());
        // The siblings to put to the rectangle test next: the roots first,
        // then the children of every node expanded.
        let mut level = 0..self.roots;
        loop {
            if !level.is_empty() {
                // The parent's frame is the last one; it is never empty.
                let parent = &alive[frames[frames.len() - 2]..];
                let budget = parent.iter().fold(parent[0].budget, |best, r| {
                    if r.budget > best {
                        r.budget
                    } else {
                        best
                    }
                });
                for (id, rec) in level.clone().zip(self.nodes.recs(level)) {
                    // A leaf none of whose members any row of the run is
                    // paired with is not even tested.
                    let no_pair = rec.children().is_empty() && rec.members().end <= lowest(run[0]);
                    if !no_pair && run_admits(&rects, rec, tau, budget, walk, stats) {
                        run_nodes.push(id);
                    }
                }
            }
            let Some(id) = run_nodes.pop() else {
                return;
            };
            let rec = self.nodes.rec(id);
            // Depth first: the frames above `rec.depth` belong to the path
            // to the node expanded before, which shares `rec`'s ancestors.
            let depth = rec.depth as usize;
            frames.truncate(depth + 1);
            alive.truncate(frames[depth]);
            let parent = frames[depth - 1]..frames[depth];
            let mut row_tests = FilterStats::default();
            for i in parent {
                let row = alive[i];
                let q = src.store.entry(row.sid as usize).soa();
                if let Some((budget, suffix)) = node_admits(
                    &rec.mbr,
                    rec.depth,
                    rec.min_len,
                    rec.max_len,
                    q,
                    tau,
                    row.budget,
                    row.suffix,
                    walk,
                    &mut row_tests,
                ) {
                    alive.push(RowState {
                        sid: row.sid,
                        budget,
                        suffix,
                    });
                }
            }
            let here = frames[depth]..alive.len();
            frames.push(alive.len());
            level = 0..0;
            if here.is_empty() {
                // Every row rejected the node itself.
                if row_tests.nodes_pruned_budget > 0 {
                    stats.nodes_pruned_budget += 1;
                } else {
                    stats.nodes_pruned_length += 1;
                }
                continue;
            }
            let members = rec.members();
            for i in here {
                let sid = alive[i].sid;
                let q = src.store.entry(sid as usize).soa();
                for m in members.start.max(lowest(sid))..members.end {
                    // A row alive at the node that owns it survives the
                    // leaf stages against itself without running them.
                    let itself = diagonal && m == sid;
                    stats.members_checked += itself as usize;
                    if itself || self.member_survives(m, q, tau, walk, edr, stats) {
                        emit(sid, m);
                    }
                }
            }
            level = rec.children();
        }
    }
}

/// What [`TrieIndex::probe_rows`] knows of a run of rows before it walks
/// the destination: three rectangles and the rows' length range, each read
/// from the source's store.
#[derive(Debug, Clone, Copy)]
struct RunRects {
    /// MBR of the rows' first points: what an endpoint level 1 is held to.
    first: Mbr,
    /// MBR of the rows' last points (level 2).
    last: Mbr,
    /// Union of the rows' whole-trajectory MBRs: every point of every row,
    /// which is what a pivot level's suffix scan and an edit level range
    /// over.
    all: Mbr,
    min_len: u32,
    max_len: u32,
}

/// The summary of the rows `run` of `store`.
fn run_rects(store: &TrajStore, run: &[u32]) -> RunRects {
    let mut rects = RunRects {
        first: Mbr::EMPTY,
        last: Mbr::EMPTY,
        all: Mbr::EMPTY,
        min_len: u32::MAX,
        max_len: 0,
    };
    for &sid in run {
        let e = store.entry(sid as usize);
        rects.first.extend(&e.first());
        rects.last.extend(&e.last());
        rects.all = rects.all.union(e.mbr());
        rects.min_len = rects.min_len.min(e.len() as u32);
        rects.max_len = rects.max_len.max(e.len() as u32);
    }
    rects
}

/// The run-level form of [`node_admits`]: `false` only when every row of the
/// run whose own budget is at most `budget` would reject the node itself
/// (the proof is on [`TrieIndex::probe_rows`]). Counts the test, and the
/// prune under the stage that caused it, into `stats`.
fn run_admits(
    run: &RunRects,
    rec: &NodeRec,
    tau: f64,
    budget: f64,
    walk: &Walk,
    stats: &mut FilterStats,
) -> bool {
    stats.nodes_visited += 1;
    let (min_len, max_len) = (run.min_len as f64, run.max_len as f64);
    if walk.is_edr() && edr_lengths_apart(rec.min_len, rec.max_len, min_len, max_len, tau) {
        stats.nodes_pruned_length += 1;
        return false;
    }
    let rect = match (rec.depth, walk) {
        (1, Walk::Additive | Walk::Max) => &run.first,
        (2, Walk::Additive | Walk::Max) => &run.last,
        _ => &run.all,
    };
    let d = rect.min_dist_mbr(&rec.mbr);
    let rejects = match *walk {
        Walk::Additive | Walk::Max => d > budget,
        Walk::Edit { eps, delta, .. } => {
            d > eps && (delta.is_none() || rec.max_len <= run.min_len) && budget < 1.0
        }
    };
    stats.nodes_pruned_budget += rejects as usize;
    !rejects
}

/// The layout-independent first half of a trie build: per-trajectory
/// preprocessing, then root-tile splitting with per-tile subtree
/// construction (both fanned out over `config.build_threads`, in input
/// order), then the serial pass that hands out the local ids
/// ([`cluster_members`]). Returns the preprocessed members in input order,
/// the order vector (`order[i]` is the input position of local id `i`), the
/// pending subtrees in tile order with their members as local ids, and the
/// helper-thread CPU time to charge back.
///
/// Shared with [`crate::pointer::PointerTrie`] so both encodings flatten
/// the *same* deterministic tree with the *same* local ids.
pub(crate) fn build_pending(
    trajectories: Vec<Trajectory>,
    config: &TrieConfig,
) -> (Vec<IndexedTrajectory>, Vec<u32>, Vec<PendingNode>, Duration) {
    let fan = FanOut::new(config.build_threads);

    // --- 1. Per-trajectory preprocessing (pivots, MBR, SoA) ---
    let data: Vec<IndexedTrajectory> = fan.map(trajectories, |t| {
        IndexedTrajectory::new(t, config.k, config.strategy, config.cell_side)
    });

    // --- 2. Tree construction ---
    // The root level is split serially; each root tile's subtree is then
    // built independently and flattened into the arena in tile order.
    let all: Vec<usize> = (0..data.len()).collect();
    let root_tiles = split_tiles(&data, config, all, 1);
    let mut pending: Vec<PendingNode> =
        fan.map(root_tiles, |tile| build_subtree(&data, config, tile));
    let mut order = Vec::with_capacity(data.len());
    cluster_members(&mut pending, &mut order);
    (data, order, pending, fan.helper_cpu())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dita_trajectory::trajectory::figure1_trajectories;
    use proptest::{prop_assert, prop_assert_eq};

    fn fig1_index(nl: usize, k: usize) -> TrieIndex {
        TrieIndex::build(
            figure1_trajectories(),
            TrieConfig {
                k,
                nl,
                leaf_capacity: 0,
                strategy: PivotStrategy::NeighborDistance,
                cell_side: 2.0,
                ..TrieConfig::default()
            },
        )
    }

    fn ids_of(index: &TrieIndex, cands: &[u32]) -> Vec<u64> {
        let mut v: Vec<u64> = cands.iter().map(|&c| index.get(c).id()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn builds_figure5_shape() {
        // Figure 5: N_L = 2, K = 2, neighbor pivots. With leaf capacity 0 the
        // trie descends all K+2 levels, as drawn in the paper.
        let index = fig1_index(2, 2);
        assert_eq!(index.len(), 5);
        assert!(!index.is_empty());
        assert!(index.index_size_bytes() > 0);
        assert!(index.size_bytes() > index.index_size_bytes());
    }

    #[test]
    fn filter_is_sound_for_dtw() {
        // Candidates must be a superset of the true answers for any τ.
        let index = fig1_index(2, 2);
        let ts = figure1_trajectories();
        for q in &ts {
            for tau in [0.5, 1.0, 3.0, 5.0, 10.0] {
                let cands = ids_of(
                    &index,
                    &index.candidates(q.points(), tau, &DistanceFunction::Dtw),
                );
                for t in &ts {
                    let d = dita_distance::dtw(t.points(), q.points());
                    if d <= tau {
                        assert!(
                            cands.contains(&t.id),
                            "filter dropped T{} (d={d}) for Q=T{} tau={tau}",
                            t.id,
                            q.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paper_example_5_2_walkthrough() {
        // Example 5.2: querying the Figure 5 trie with Q = T4 and τ = 3
        // yields T4 as the only candidate.
        let index = fig1_index(2, 2);
        let ts = figure1_trajectories();
        let cands = ids_of(
            &index,
            &index.candidates(ts[3].points(), 3.0, &DistanceFunction::Dtw),
        );
        assert_eq!(cands, vec![4]);
    }

    #[test]
    fn example_2_6_candidates_contain_answers() {
        // Q = T1, τ = 3 → answers {T1, T2} must survive the filter.
        let index = fig1_index(2, 2);
        let ts = figure1_trajectories();
        let cands = ids_of(
            &index,
            &index.candidates(ts[0].points(), 3.0, &DistanceFunction::Dtw),
        );
        assert!(cands.contains(&1));
        assert!(cands.contains(&2));
        // T4/T5 start far from T1's first point and should be pruned.
        assert!(!cands.contains(&4));
        assert!(!cands.contains(&5));
    }

    #[test]
    fn filter_sound_for_all_functions() {
        let index = fig1_index(2, 2);
        let ts = figure1_trajectories();
        let fns = [
            DistanceFunction::Dtw,
            DistanceFunction::Frechet,
            DistanceFunction::Edr { eps: 1.0 },
            DistanceFunction::Lcss { eps: 1.0, delta: 2 },
            DistanceFunction::Erp { gap: (0.0, 0.0) },
        ];
        for f in fns {
            for q in &ts {
                for tau in [0.0, 1.0, 2.0, 4.0, 8.0] {
                    let cands = ids_of(&index, &index.candidates(q.points(), tau, &f));
                    for t in &ts {
                        let d = f.distance(t.points(), q.points());
                        if d <= tau {
                            assert!(
                                cands.contains(&t.id),
                                "{f}: dropped T{} (d={d}) for Q=T{} tau={tau}",
                                t.id,
                                q.id
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_tau_still_finds_self() {
        let index = fig1_index(2, 2);
        let ts = figure1_trajectories();
        for t in &ts {
            let cands = ids_of(
                &index,
                &index.candidates(t.points(), 0.0, &DistanceFunction::Dtw),
            );
            assert!(cands.contains(&t.id));
        }
    }

    #[test]
    fn negative_tau_or_empty_query_yields_nothing() {
        let index = fig1_index(2, 2);
        let ts = figure1_trajectories();
        assert!(index
            .candidates(ts[0].points(), -1.0, &DistanceFunction::Dtw)
            .is_empty());
        assert!(index
            .candidates(&[], 3.0, &DistanceFunction::Dtw)
            .is_empty());
    }

    #[test]
    fn short_trajectories_without_pivots_still_indexed() {
        // 2-point trajectories have no interior pivots at all.
        let ts = vec![
            Trajectory::from_coords(1, &[(0.0, 0.0), (1.0, 0.0)]),
            Trajectory::from_coords(2, &[(0.1, 0.0), (1.1, 0.0)]),
            Trajectory::from_coords(3, &[(5.0, 5.0), (6.0, 5.0), (7.0, 5.0), (8.0, 5.0)]),
        ];
        let index = TrieIndex::build(
            ts.clone(),
            TrieConfig {
                k: 2,
                nl: 2,
                leaf_capacity: 0,
                strategy: PivotStrategy::NeighborDistance,
                cell_side: 1.0,
                ..TrieConfig::default()
            },
        );
        assert_eq!(index.len(), 3);
        let q = &ts[0];
        let cands = ids_of(
            &index,
            &index.candidates(q.points(), 1.0, &DistanceFunction::Dtw),
        );
        assert!(cands.contains(&1));
        assert!(cands.contains(&2));
        assert!(!cands.contains(&3));
    }

    #[test]
    fn filter_stats_stage_counts_are_consistent() {
        let index = fig1_index(2, 2);
        let ts = figure1_trajectories();
        let fns = [
            DistanceFunction::Dtw,
            DistanceFunction::Frechet,
            DistanceFunction::Edr { eps: 1.0 },
            DistanceFunction::Lcss { eps: 1.0, delta: 2 },
        ];
        for f in &fns {
            for q in &ts {
                for tau in [0.5, 1.0, 3.0, 8.0] {
                    let (cands, stats) = index.candidates_with_stats(q.points(), tau, f);
                    // Survivors of the funnel are exactly the emitted
                    // candidates (each member lives in one node, so no
                    // dedup slack).
                    assert_eq!(stats.candidates(), cands.len(), "{f} tau={tau}");
                    let funnel = stats.funnel(dita_obs::names::FUNNEL_TRIE_FILTER);
                    assert_eq!(funnel.survivors() as usize, cands.len());
                    assert_eq!(
                        stats.nodes_pruned(),
                        stats.nodes_pruned_length + stats.nodes_pruned_budget
                    );
                    assert_eq!(
                        stats.members_rejected(),
                        stats.members_pruned_length + stats.members_pruned_opamd
                    );
                    // Stage chaining: each stage enters what survived the
                    // one before it.
                    assert_eq!(funnel.stages[1].entered, funnel.stages[0].survivors());
                    assert_eq!(funnel.stages[3].entered, funnel.stages[2].survivors());
                    assert!(stats.members_checked <= index.len());
                }
            }
        }
    }

    #[test]
    fn non_edr_probes_never_use_length_stages() {
        let index = fig1_index(2, 2);
        let ts = figure1_trajectories();
        let (_, stats) = index.candidates_with_stats(ts[0].points(), 1.0, &DistanceFunction::Dtw);
        assert_eq!(stats.nodes_pruned_length, 0);
        assert_eq!(stats.members_pruned_length, 0);
        assert!(stats.nodes_visited > 0);
    }

    #[test]
    fn edr_length_pruning_shows_up_in_its_stage() {
        // A query much longer than every indexed trajectory with tiny τ:
        // the EDR length interval must prune at the node stage.
        let index = fig1_index(2, 2);
        let q: Vec<Point> = (0..200).map(|i| Point::new(i as f64, 0.0)).collect();
        let (cands, stats) =
            index.candidates_with_stats(&q, 1.0, &DistanceFunction::Edr { eps: 1.0 });
        assert!(cands.is_empty());
        assert!(
            stats.nodes_pruned_length > 0,
            "length stage silent: {stats:?}"
        );
    }

    #[test]
    fn merged_stats_accumulate_all_stages() {
        let index = fig1_index(2, 2);
        let ts = figure1_trajectories();
        let (_, a) = index.candidates_with_stats(ts[0].points(), 1.0, &DistanceFunction::Dtw);
        let (_, b) = index.candidates_with_stats(ts[3].points(), 1.0, &DistanceFunction::Dtw);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.nodes_visited, a.nodes_visited + b.nodes_visited);
        assert_eq!(
            m.members_pruned_opamd,
            a.members_pruned_opamd + b.members_pruned_opamd
        );
        let name = dita_obs::names::FUNNEL_TRIE_FILTER;
        let mut f = a.funnel(name);
        f.merge(&b.funnel(name));
        assert_eq!(f, m.funnel(name));
    }

    #[test]
    fn deep_k_matches_shallow_answers() {
        // Pruning power may differ across K but soundness must not.
        let ts = figure1_trajectories();
        for k in [0, 1, 2, 3] {
            let index = fig1_index(2, k);
            for q in &ts {
                let cands = ids_of(
                    &index,
                    &index.candidates(q.points(), 3.0, &DistanceFunction::Dtw),
                );
                for t in &ts {
                    if dita_distance::dtw(t.points(), q.points()) <= 3.0 {
                        assert!(cands.contains(&t.id), "k={k}");
                    }
                }
            }
        }
    }

    /// xorshift64* random walks over a [0, 8]² region, ids `1..=n`.
    fn seeded_rows(n: usize, seed: u64) -> Vec<Trajectory> {
        let mut state = seed | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let len = 1 + (unit() * 40.0) as usize;
                let (mut x, mut y) = (unit() * 8.0, unit() * 8.0);
                let pts = (0..len)
                    .map(|_| {
                        let p = Point::new(x, y);
                        x += (unit() - 0.5) * 0.6;
                        y += (unit() - 0.5) * 0.6;
                        p
                    })
                    .collect();
                Trajectory::new(i as u64 + 1, pts)
            })
            .collect()
    }

    /// The layout the probe and verification rely on: member runs tile
    /// `0..len` in node order, children are later consecutive records each
    /// owned by one parent, and the renumbering lost or duplicated nobody.
    fn assert_leaf_clustered(index: &TrieIndex, input: &[Trajectory]) {
        let n_nodes = index.nodes.len() as u32;
        let mut next_member = 0u32;
        let mut parents = vec![0usize; n_nodes as usize];
        let mut stored_ids = Vec::with_capacity(index.len());
        for id in 0..n_nodes {
            let rec = index.nodes.rec(id);
            assert_eq!(rec.members().start, next_member, "node {id}: runs tile");
            next_member = rec.members().end;
            for m in rec.members() {
                let e = index.get(m);
                // The run really is this node's tile, not just any run.
                let key = e.index_points()[rec.depth as usize - 1];
                assert!(rec.mbr.contains_point(&key), "node {id} member {m}");
                stored_ids.push(e.id());
            }
            assert!(rec.children().end <= n_nodes, "node {id}: children exist");
            for (c, child) in rec.children().zip(index.nodes.recs(rec.children())) {
                assert!(c > id, "node {id}: children come later");
                assert_eq!(child.depth, rec.depth + 1);
                parents[c as usize] += 1;
            }
        }
        assert_eq!(next_member as usize, index.len(), "runs tile 0..len");
        for (id, &count) in parents.iter().enumerate() {
            let expected = usize::from(id as u32 >= index.roots);
            assert_eq!(count, expected, "node {id}: one parent, roots none");
        }
        stored_ids.sort_unstable();
        let mut input_ids: Vec<u64> = input.iter().map(|t| t.id).collect();
        input_ids.sort_unstable();
        assert_eq!(stored_ids, input_ids, "a permutation of the input");
    }

    #[test]
    fn store_is_leaf_clustered_and_nodes_are_range_addressed() {
        let fig1 = figure1_trajectories();
        for (nl, k) in [(2, 2), (2, 0), (3, 3)] {
            assert_leaf_clustered(&fig1_index(nl, k), &fig1);
        }
        let rows = seeded_rows(2000, 0x5eed_1901);
        for (leaf_capacity, build_threads) in [(16, 1), (16, 4), (0, 1), (3, 2)] {
            let config = TrieConfig {
                k: 4,
                nl: 8,
                leaf_capacity,
                build_threads,
                ..TrieConfig::default()
            };
            assert_leaf_clustered(&TrieIndex::build(rows.clone(), config), &rows);
        }
    }

    /// The retired one-pass Lemma 5.1 loop over a node MBR, as
    /// `node_admits` carried it: the reference [`suffix_scan`] is held to.
    fn scalar_scan_mbr(q: &[Point], suffix: usize, mbr: &Mbr, budget_sq: f64) -> (f64, usize) {
        let mut best_sq = f64::INFINITY;
        let mut first_ok = None;
        for (j, p) in q.iter().enumerate().skip(suffix) {
            let dsq = mbr.min_dist_point_sq(p);
            if dsq < best_sq {
                best_sq = dsq;
            }
            if first_ok.is_none() && dsq <= budget_sq {
                first_ok = Some(j);
            }
            if best_sq == 0.0 && first_ok.is_some() {
                break;
            }
        }
        (best_sq, first_ok.unwrap_or(suffix))
    }

    /// The retired loop over a member's pivot point, as `member_admits`
    /// carried it twice: the `Additive` arm stopped early once the minimum
    /// was zero and the anchor fixed, the `Max` arm never did.
    fn scalar_scan_point(
        q: &[Point],
        suffix: usize,
        p: &Point,
        budget_sq: f64,
        early_stop: bool,
    ) -> (f64, usize) {
        let mut best_sq = f64::INFINITY;
        let mut first_ok = None;
        for (j, qj) in q.iter().enumerate().skip(suffix) {
            let d = p.dist_sq(qj);
            if d < best_sq {
                best_sq = d;
            }
            if first_ok.is_none() && d <= budget_sq {
                first_ok = Some(j);
            }
            if early_stop && best_sq == 0.0 && first_ok.is_some() {
                break;
            }
        }
        (best_sq, first_ok.unwrap_or(suffix))
    }

    /// Budgets on both sides of the suffix minimum, the minimum itself,
    /// and the two ends of the range.
    fn budgets_around(best_sq: f64) -> [f64; 7] {
        [
            0.0,
            best_sq * 0.5,
            f64::from_bits(best_sq.to_bits().saturating_sub(1)),
            best_sq,
            best_sq * 1.5 + 1e-9,
            best_sq * 40.0 + 1.0,
            f64::INFINITY,
        ]
    }

    fn assert_same_scan(got: (f64, usize), want: (f64, usize), what: &str) {
        assert_eq!(got.0.to_bits(), want.0.to_bits(), "{what}: best_sq bits");
        assert_eq!(got.1, want.1, "{what}: first_ok");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// [`suffix_scan`] returns the retired scalar loops' `best_sq` bit
        /// for bit and their `first_ok`, for a node's rectangle and for a
        /// member's point, at every suffix (the empty one included), for
        /// query lengths on and off the lane count, for budgets that find
        /// an anchor and budgets that do not, and for a target lying on a
        /// query point.
        #[test]
        fn suffix_scan_matches_the_retired_scalar_loops(
            coords in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..71),
            corner in (-20.0f64..20.0, -20.0f64..20.0),
            extent in (0.0f64..6.0, 0.0f64..6.0),
            on_point in 0usize..70,
        ) {
            let q: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let n = q.len();
            let lo = Point::new(corner.0, corner.1);
            let mbr = Mbr { min: lo, max: Point::new(lo.x + extent.0, lo.y + extent.1) };
            // A pivot somewhere, and one coinciding with a query point.
            let pivots = [lo, q[on_point % n]];
            let mut scratch = ProbeScratch::new();
            let (_, query) = scratch.begin(&q);
            for suffix in 0..=n {
                let (min_sq, _) = scalar_scan_mbr(&q, suffix, &mbr, 0.0);
                for budget_sq in budgets_around(min_sq) {
                    assert_same_scan(
                        suffix_scan(query, suffix, budget_sq, |x, y| {
                            mbr.min_dist_point_sq(&Point::new(x, y))
                        }),
                        scalar_scan_mbr(&q, suffix, &mbr, budget_sq),
                        &format!("mbr n={n} suffix={suffix} budget_sq={budget_sq}"),
                    );
                }
                for p in &pivots {
                    let (min_sq, _) = scalar_scan_point(&q, suffix, p, 0.0, false);
                    for budget_sq in budgets_around(min_sq) {
                        let got = suffix_scan(query, suffix, budget_sq, |x, y| {
                            p.dist_sq(&Point::new(x, y))
                        });
                        let what = format!("point n={n} suffix={suffix} budget_sq={budget_sq}");
                        for early_stop in [false, true] {
                            let want = scalar_scan_point(&q, suffix, p, budget_sq, early_stop);
                            assert_same_scan(got, want, &what);
                        }
                    }
                }
            }
            // The coinciding pivot does reach zero on the suffixes that
            // still hold its point.
            let at = on_point % n;
            let on_it = suffix_scan(query, 0, 0.0, |x, y| q[at].dist_sq(&Point::new(x, y)));
            prop_assert_eq!(on_it.0, 0.0);
            prop_assert!(on_it.1 <= at);
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_probes() {
        let index = fig1_index(2, 2);
        let ts = figure1_trajectories();
        let mut scratch = ProbeScratch::new();
        for q in &ts {
            for tau in [0.5, 3.0] {
                let fresh = index.candidates_with_stats(q.points(), tau, &DistanceFunction::Dtw);
                let reused = index.candidates_with_scratch(
                    q.points(),
                    tau,
                    &DistanceFunction::Dtw,
                    &mut scratch,
                );
                assert_eq!(fresh, reused);
                assert_eq!(
                    index.candidate_count(q.points(), tau, &DistanceFunction::Dtw, &mut scratch),
                    fresh.0.len()
                );
            }
        }
    }
}
