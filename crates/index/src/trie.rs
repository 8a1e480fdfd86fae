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
//! assume otherwise. The probe walks that flat layout depth first, on a
//! stack held in a [`ProbeScratch`]. The tests hold it to a reference
//! that visits the arena in id order with no stack
//! ([`TrieIndex::reference_candidates`]), and the arena to the tree it was
//! flattened from.
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
//! A node a query's level test admits is then held to its subtree's
//! *extent*, the union of its members' MBRs ([`extent_admits`]), before
//! the query goes below it. At a node that owns members the walk runs one
//! member loop ([`TrieIndex::screen_members`]): a block screen on the
//! members' squared endpoint distances, with no `sqrt`, and the exact
//! cascade on what it leaves — the endpoint levels, the query's points
//! against the member's MBR, then the pivot levels.
//!
//! There is one such walk ([`TrieIndex::probe_run`]), and it walks a run of
//! rows: a single query is a run of one ([`TrieIndex::probe_soa`]). The
//! local join (§6) probes with a leaf of stored rows at a time
//! ([`TrieIndex::probe_rows`]): one walk of the destination per run of rows
//! one source node owns, a rectangle test for the whole run in front of
//! every node, each row's own unchanged cascade behind it. The join planner
//! takes its shipped sets from a walk of the node arena as well
//! ([`TrieIndex::endpoint_members`]).

use crate::flat::{EntryRef, FlatNodes, NodeRec, TrajStore};
use crate::partitioner::str_tiles_pub as str_tiles;
use crate::pivot::{top_k_pivots, PivotStrategy};
use dita_distance::function::IndexMode;
use dita_distance::{bounds, DistanceFunction};
use dita_trajectory::{Mbr, Point, SoaPoints, SoaView, Trajectory};
use std::ops::Range;
use std::time::Duration;

/// The largest [`TrieConfig::k`] a trie takes. A row has up to `K + 2`
/// indexing points, one trie level each, and a node stores its depth as a
/// `u8`: `K + 2` must not exceed 255.
pub const MAX_K: usize = u8::MAX as usize - 2;

/// Configuration of the local trie index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrieConfig {
    /// Number of pivot points K (paper default: 4–5 depending on dataset),
    /// at most [`MAX_K`].
    pub k: usize,
    /// Fanout N_L at every level (paper default: 32).
    pub nl: usize,
    /// Stop splitting a node once it holds at most this many trajectories
    /// (the paper stops at 16). Zero means "never stop early": every
    /// trajectory descends the full K+2 levels, as drawn in Figure 5.
    pub leaf_capacity: usize,
    /// Pivot selection strategy (paper finds Neighbor best).
    pub strategy: PivotStrategy,
    /// Unread; kept only because `benchmark/` names it (ROADMAP, "Unfreeze
    /// `benchmark/` once and delete everything that waits on it").
    pub cell_side: f64,
    /// The fan-out of the driver's STR partitioning
    /// (`str_partitioning_par`) when a `DitaSystem` is built. A trie build
    /// reads no thread count: it runs on its caller's thread, and the
    /// cluster job that builds one trie a partition is a table build's
    /// parallelism. The partitioning is identical for every thread count,
    /// so this knob is not part of a snapshot's header. Kept only because
    /// `benchmark/` reads it (ROADMAP, "Unfreeze `benchmark/` once and
    /// delete everything that waits on it").
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
            // Host parallelism.
            build_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// A row of the unflushed ingestion tail: the trajectory plus the two
/// artifacts its verification reads (MBR, SoA coordinates).
///
/// The tail is checked row by row, never probed, so it keeps no pivots or
/// indexing points. A trie build makes none of these: it preprocesses into
/// flat arenas and pools its rows straight into a [`TrajStore`].
#[derive(Debug, Clone)]
pub struct IndexedTrajectory {
    /// The trajectory itself.
    pub traj: Trajectory,
    /// Whole-trajectory MBR (for Lemma 5.4 filtering).
    pub mbr: Mbr,
    /// Structure-of-arrays copy of the points, built once at insert time
    /// so the verification kernels stream contiguous coordinates.
    pub soa: SoaPoints,
}

impl IndexedTrajectory {
    /// Precomputes `traj`'s verification artifacts.
    pub fn new(traj: Trajectory) -> Self {
        let mbr = traj.mbr();
        let soa = SoaPoints::from_points(traj.points());
        IndexedTrajectory { traj, mbr, soa }
    }
}

/// Appends a trajectory's indexing points to `out`: first, last when
/// distinct, then the points at `pivots`. A single-point trajectory has
/// first == last as the *same* DTW matrix cell; indexing it twice would let
/// the filter charge its distance twice (unsound when the query is also a
/// single point).
fn push_index_points(points: &[Point], pivots: impl Iterator<Item = usize>, out: &mut Vec<Point>) {
    out.push(points[0]);
    if points.len() > 1 {
        out.push(points[points.len() - 1]);
    }
    out.extend(pivots.map(|i| points[i]));
}

/// A build's per-row preprocessing in flat arenas, in input order: each
/// row's indexing points, pivot positions, whole-trajectory MBR and length.
/// Row `i` owns `ips[ip_off[i]..ip_off[i + 1]]` and `pivs[piv_off[i]..
/// piv_off[i + 1]]`. There is no per-row heap object: one of these is filled
/// for all rows ([`Prepared::of`]). [`split_tiles`] and [`build_subtree`]
/// read it, and [`TrajStore::pool`] copies it into the store in leaf order.
#[derive(Debug)]
pub(crate) struct Prepared {
    ip_off: Vec<u32>,
    ips: Vec<Point>,
    piv_off: Vec<u32>,
    pivs: Vec<u32>,
    mbrs: Vec<Mbr>,
    lens: Vec<u32>,
}

impl Prepared {
    /// Preprocesses `rows` into exact-capacity arenas: one top-k pivot pass
    /// a row ([`top_k_pivots`], its buffer shared by all of them).
    pub(crate) fn of(rows: &[&Trajectory], k: usize, strategy: PivotStrategy) -> Self {
        let n = rows.len();
        // A row of `m` points has `min(m, k + 2)` indexing points, of which
        // `min(m, 2)` are its endpoints.
        let total_ips: usize = rows.iter().map(|t| t.len().min(k.saturating_add(2))).sum();
        let total_pivs = total_ips - rows.iter().map(|t| t.len().min(2)).sum::<usize>();
        assert!(
            total_ips <= u32::MAX as usize,
            "indexing-point arena exceeds u32 offsets"
        );
        let mut prep = Prepared {
            ip_off: Vec::with_capacity(n + 1),
            ips: Vec::with_capacity(total_ips),
            piv_off: Vec::with_capacity(n + 1),
            pivs: Vec::with_capacity(total_pivs),
            mbrs: Vec::with_capacity(n),
            lens: Vec::with_capacity(n),
        };
        prep.ip_off.push(0);
        prep.piv_off.push(0);
        // Grown to the longest row's pivot count once, then reused.
        let mut best = Vec::new();
        for t in rows {
            top_k_pivots(t.points(), k, strategy, &mut best);
            let positions = best.iter().map(|&(_, i)| i);
            push_index_points(t.points(), positions.clone(), &mut prep.ips);
            prep.ip_off.push(prep.ips.len() as u32);
            prep.pivs.extend(positions.map(|i| i as u32));
            prep.piv_off.push(prep.pivs.len() as u32);
            prep.mbrs.push(t.mbr());
            prep.lens.push(t.len() as u32);
        }
        prep
    }

    /// Row `i`'s indexing points: first, last when distinct, then pivots.
    #[inline]
    pub(crate) fn index_points(&self, i: usize) -> &[Point] {
        &self.ips[self.ip_off[i] as usize..self.ip_off[i + 1] as usize]
    }

    /// Row `i`'s pivot positions, ascending.
    #[inline]
    pub(crate) fn pivots(&self, i: usize) -> &[u32] {
        &self.pivs[self.piv_off[i] as usize..self.piv_off[i + 1] as usize]
    }

    /// Row `i`'s whole-trajectory MBR.
    #[inline]
    pub(crate) fn mbr(&self, i: usize) -> &Mbr {
        &self.mbrs[i]
    }

    /// Row `i`'s number of points.
    #[inline]
    fn len(&self, i: usize) -> u32 {
        self.lens[i]
    }

    /// Total indexing points and pivot positions over all rows.
    pub(crate) fn totals(&self) -> (usize, usize) {
        (self.ips.len(), self.pivs.len())
    }
}

/// Filter-funnel statistics of one trie probe: how much work the filter
/// did and how hard each stage pruned (the paper's "pruning power"),
/// broken down per pruning stage in pipeline order:
///
/// 1. **node-length** — EDR length-interval subtree prune (Appendix A);
/// 2. **node-budget** — the per-level `MinDist` budget cascade
///    (§5.3.1/Lemma 5.1) over node MBRs;
/// 3. **node-extent** — the query's points against the node's subtree
///    extent (Lemma 5.4, point by point; DTW and Fréchet only), on the
///    nodes the level test admitted;
/// 4. **leaf-length** — the exact EDR length bound on stored members;
/// 5. **leaf-opamd** — the exact OPAMD / edit-count test (Lemma 5.1) on a
///    member's own indexing points: its endpoint and pivot levels;
/// 6. **leaf-mbr** — the query's points against the member's MBR (Lemma
///    5.4, point by point), which the `Additive` / `Max` cascade runs
///    between its endpoint and its pivot levels.
///
/// Survivors of the last stage are exactly the emitted candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Trie nodes put to a test: for a single query, each node its level
    /// test ran on; for [`TrieIndex::probe_rows`], each (run, node) pair
    /// tested — by the rectangle test, or, for a run of one row, by the
    /// row's own level test.
    pub nodes_visited: usize,
    /// Nodes pruned by the length-interval filter (EDR only).
    pub nodes_pruned_length: usize,
    /// Nodes pruned by the budget cascade over the level MBRs.
    pub nodes_pruned_budget: usize,
    /// Nodes the level test admitted and the query-to-extent bound pruned
    /// (DTW and Fréchet only).
    pub nodes_pruned_extent: usize,
    /// Stored trajectories reaching the exact per-trajectory check.
    pub members_checked: usize,
    /// Members rejected by the exact length bound (EDR only).
    pub members_pruned_length: usize,
    /// Members rejected by the OPAMD / edit-count leaf filter.
    pub members_pruned_opamd: usize,
    /// Members rejected by the query-to-MBR bound (DTW and Fréchet only).
    pub members_pruned_mbr: usize,
}

impl FilterStats {
    /// Nodes pruned across all node-level stages (subtree skipped).
    pub fn nodes_pruned(&self) -> usize {
        self.nodes_pruned_length + self.nodes_pruned_budget + self.nodes_pruned_extent
    }

    /// Members rejected across all leaf-level stages.
    pub fn members_rejected(&self) -> usize {
        self.members_pruned_length + self.members_pruned_opamd + self.members_pruned_mbr
    }

    /// Counts one member test's [`Verdict`] under the stage that decided
    /// it; `true` when the member is a candidate.
    #[inline]
    fn record(&mut self, verdict: Verdict) -> bool {
        match verdict {
            Verdict::Admits => return true,
            Verdict::Endpoints | Verdict::Pivots => self.members_pruned_opamd += 1,
            Verdict::QueryMbr => self.members_pruned_mbr += 1,
        }
        false
    }

    /// Counts one node pruned under `stage`.
    #[inline]
    fn prune(&mut self, stage: Prune) {
        *match stage {
            Prune::Length => &mut self.nodes_pruned_length,
            Prune::Extent => &mut self.nodes_pruned_extent,
            Prune::Budget => &mut self.nodes_pruned_budget,
        } += 1;
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
        self.nodes_pruned_extent += other.nodes_pruned_extent;
        self.members_checked += other.members_checked;
        self.members_pruned_length += other.members_pruned_length;
        self.members_pruned_opamd += other.members_pruned_opamd;
        self.members_pruned_mbr += other.members_pruned_mbr;
    }

    /// The counters as an ordered `dita-obs` pruning funnel named `name`
    /// (`trie-filter` for base tries, `delta-filter` for delta segments, so
    /// the two stay distinguishable in the registry). Each stage's
    /// `entered` is the previous stage's survivor count (node stages count
    /// nodes, leaf stages count members); the final stage's survivors equal
    /// [`FilterStats::candidates`]. `leaf-mbr` comes last although the
    /// cascade runs it between the endpoint and pivot levels that
    /// `leaf-opamd` counts together, so its `entered` leaves out the members
    /// the pivot levels went on to reject.
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
            names::STAGE_NODE_EXTENT,
            (self.nodes_visited - self.nodes_pruned_length - self.nodes_pruned_budget) as u64,
            self.nodes_pruned_extent as u64,
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
        f.push_stage(
            names::STAGE_LEAF_MBR,
            (self.members_checked - self.members_pruned_length - self.members_pruned_opamd) as u64,
            self.members_pruned_mbr as u64,
        );
        f
    }
}

/// The node stage that pruned a node. Ordered by which one a run's node
/// is counted under when its rows reject it at different stages: the
/// budget before the extent before the length interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Prune {
    /// The EDR length interval ([`edr_lengths_apart`]).
    Length,
    /// The query against the subtree's extent ([`extent_admits`]).
    Extent,
    /// The level's budget.
    Budget,
}

/// Which level of the member test ([`member_admits`]) decided a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Every level admitted: the member is a candidate.
    Admits,
    /// The first- or last-point level rejected it (the block screen's
    /// rejections are these levels').
    Endpoints,
    /// The query's points against the member's MBR rejected it.
    QueryMbr,
    /// A pivot level rejected it, or, under the edit walks, the edit count.
    Pivots,
}

/// Member tests a scratch's probes decided on the endpoints, ahead of the
/// query-to-MBR bound and the pivot levels (the rest of the split is in
/// [`FilterStats`]); counted only under `Additive` and `Max`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointRejects {
    /// Rejected by the block screen, in squared space.
    pub screen: usize,
    /// Let through by the screen, rejected by the cascade's first- or
    /// last-point level.
    pub levels: usize,
}

impl std::ops::AddAssign for EndpointRejects {
    fn add_assign(&mut self, other: Self) {
        self.screen += other.screen;
        self.levels += other.levels;
    }
}

/// Reusable traversal state for repeated trie probes: two coordinate
/// arrays for a query that arrives as `&[Point]`, and the stack and row
/// buffer of the one depth-first walk ([`TrieIndex::probe_run`]), which
/// single queries and [`TrieIndex::probe_rows`] share. Holding one across
/// probes makes them allocation-free once the buffers have grown to their
/// working size (`tests/probe_allocations.rs`).
#[derive(Debug, Default)]
pub struct ProbeScratch {
    qx: Vec<f64>,
    qy: Vec<f64>,
    /// The nodes admitted and not yet expanded, one `(node, row)` entry
    /// for each row alive at a node, a node's entries adjacent.
    open: Vec<(u32, RowState)>,
    /// The rows alive at the node being expanded.
    alive: Vec<RowState>,
    /// Members this scratch's probes rejected on the endpoints.
    ends: EndpointRejects,
}

impl ProbeScratch {
    /// An empty scratch; the first probes grow it to working size.
    pub fn new() -> Self {
        Self::default()
    }

    /// The member tests every probe run on this scratch so far decided on
    /// the endpoints: the block screen's and the cascade's endpoint levels'
    /// share of [`FilterStats::members_pruned_opamd`].
    pub fn endpoint_rejects(&self) -> EndpointRejects {
        self.ends
    }
}

/// The block screen's κ: it rejects a member only where the squared
/// endpoint distances exceed `τ²·(1 + κ)` (see
/// [`TrieIndex::screen_members`]).
const SCREEN_KAPPA: f64 = 64.0 * f64::EPSILON;

/// What the squared endpoint distances are held to: `τ²·(1 + κ)`, with `τ²`
/// raised to the smallest normal number when it is below it (a subnormal
/// square carries an absolute rounding error, not a relative one). NaN
/// when τ is — and a comparison with NaN rejects nothing.
#[inline]
pub(crate) fn screen_limit(tau: f64) -> f64 {
    let sq = tau * tau;
    let sq = if sq < f64::MIN_POSITIVE {
        f64::MIN_POSITIVE
    } else {
        sq
    };
    sq * (1.0 + SCREEN_KAPPA)
}

/// The squared screen on one pair: `a` and `b`, the squared first- and
/// last-point distances, summed when the exact test adds the two distances
/// (`sum`) and each held alone when it compares them one at a time. `true`
/// only where the exact test rejects too (the proofs are on
/// [`TrieIndex::screen_members`] and [`TrieIndex::endpoint_members`]); a NaN
/// operand never makes it true.
#[inline]
pub(crate) fn squared_rejects(a: f64, b: f64, sum: bool, lim: f64) -> bool {
    if sum {
        a + b > lim
    } else {
        (a > lim) | (b > lim)
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
enum Walk {
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
    fn of(func: &DistanceFunction) -> Option<Walk> {
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
    fn is_edr(&self) -> bool {
        matches!(self, Walk::Edit { edr: true, .. })
    }

    /// How the block screen ([`TrieIndex::screen_members`]) combines a member's
    /// two squared endpoint distances: summed (`Additive`), each alone
    /// (`Max`); `None` for the edit walks, whose members are not screened.
    #[inline]
    fn squared_sum(&self) -> Option<bool> {
        match self {
            Walk::Additive => Some(true),
            Walk::Max => Some(false),
            Walk::Edit { .. } => None,
        }
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

/// How far below zero the [`Walk::Additive`] budget may end at one level
/// before the level is pruned: `cascade_slack(tau)` a level, so
/// `level · 2ε · τ` at level `level` (1-based: first point, last point,
/// then the pivots). See [`node_admits`] for why this much and no less.
#[inline]
pub(crate) fn cascade_slack(tau: f64) -> f64 {
    2.0 * f64::EPSILON * tau
}

/// Evaluates one node's payload against the query: the EDR
/// length-interval prune, the per-level MinDist (with the Lemma 5.1
/// ordered-suffix scan on pivot levels) and the per-walk budget update.
/// Returns the `(budget, suffix)` to carry into the subtree — the caller
/// pushes the node with them — or the [`Prune`] stage that pruned the node
/// for this query; the caller counts the test and the prune.
///
/// Shared by the depth-first walk ([`TrieIndex::probe_run`]) and
/// [`TrieIndex::reference_candidates`], so the two differ only in
/// traversal order, never in pruning decisions. Always inlined: called
/// out of line from the walk, it left single-query probes ≈ 5 % slower
/// (EXPERIMENTS.md, "One depth-first walk").
///
/// **The `Additive` slack.** The kernel adds a warping path's cell
/// distances up; this cascade subtracts one level's distance at a time from
/// τ. In ℝ the two agree: every level's `d` is at most the distance of a
/// distinct cell of the path, so `τ − Σ d ≥ τ − DTW ≥ 0`. In `f64` they can
/// disagree by an ulp — DTW of `[(2,2),(1,2)]` and `[(1,0),(0,1)]` is
/// `fl(√5 + √2)`, and `(τ − √5) − √2 < 0` at τ equal to it — so level `k`
/// admits while its budget is at least `−k·s`, `s =` [`cascade_slack`]`(τ)
/// = 2ε·τ = 4u·τ` (`u = ε/2`, the unit roundoff). Sufficient: let the
/// kernel return `D ≤ τ`. It adds the path's cells in path order, and the
/// sum rounds down by at most `min(c, u·τ)` when cell `c` is added, so
/// `D ≥ Σ cells − k·u·τ` counting only the `k` cells the first `k` levels
/// are charged against (a cell no level charges loses at most itself, and
/// it is missing from `Σ d` too). Each of the cascade's `k` subtractions
/// rounds by at most `u·τ` (its result lies in `[−k·s, τ]`; a subnormal
/// difference is exact). So the budget at level `k` is at least `τ − Σ d −
/// k·u·τ ≥ −2k·u·τ`: half of `k·s`. The other half covers the pivot levels'
/// anchor: the suffix scan looks for the first query point within
/// `(budget + k·s)²`, and a host cell `c ≤ budget + (2k − 1)·u·τ` has
/// `dist² ≤ c²·(1 + 3u)`, which stays below the rounded square of that
/// allowance. `Max` compares its distances with τ as they are — the
/// kernel's `max` does not round — but where it compares squares (a pivot
/// level's anchor, a member's pivot test) it squares τ plus the level's
/// slack too: `dist² > fl(τ²)` can hold while `fl(√dist²) = τ` (Fréchet at
/// τ = `fl(√13)`, found by `filter_soundness.rs`). The edit walks count
/// whole edits.
#[inline(always)]
fn node_admits(
    rec: &NodeRec,
    q: SoaView<'_>,
    tau: f64,
    budget: f64,
    suffix: usize,
    walk: &Walk,
) -> Result<(f64, usize), Prune> {
    let (mbr, depth) = (&rec.mbr, rec.depth);
    let (node_min_len, node_max_len) = (rec.min_len, rec.max_len);
    let n = q.len();
    if walk.is_edr() && edr_lengths_apart(node_min_len, node_max_len, n as f64, n as f64, tau) {
        return Err(Prune::Length);
    }
    let slack = depth as f64 * cascade_slack(tau);
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
            let allowance = budget + slack;
            let (best_sq, first_ok) = suffix_scan(q, suffix, allowance * allowance, |x, y| {
                mbr.min_dist_point_sq(&Point::new(x, y))
            });
            (best_sq.sqrt(), first_ok)
        }
    };

    let new_budget = match *walk {
        Walk::Additive => {
            let left = budget - d;
            if left < -slack {
                return Err(Prune::Budget);
            }
            left
        }
        Walk::Max => {
            if d > budget {
                return Err(Prune::Budget);
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
                        return Err(Prune::Budget);
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
    Ok((new_budget, new_suffix))
}

/// The subtree test the walks run on a node a query's level test
/// ([`node_admits`]) admitted, before the query goes below it: `false` —
/// the node and everything below it pruned for this query, under
/// [`Prune::Extent`] — when
/// [`bounds::point_mbr_sum`] (`Additive`) or [`bounds::point_mbr_max`]
/// (`Max`) of the query against the node's `extent` exceeds τ, with no
/// slack. The edit walks are not tested. A query whose MBR `q_mbr` the
/// extent covers is admitted without the scan: each of its points lies in
/// the extent, so every term is `+0.0` and so is the bound (a NaN
/// coordinate, which `q_mbr` leaves out, makes its term `+0.0` too). That
/// is most rows a join's run walk carries into a node of its own
/// neighbourhood.
///
/// **Why it is sound.** The extent `E` is the union of the MBRs of every
/// member below the node, so it contains every point of each of them, and
/// the two bounds are Lemma 5.4 read point by point for any rectangle that
/// does: neither ever exceeds the kernel's distance as computed (the proofs
/// are on them). It is also never stricter than the member test's
/// query-to-MBR level ([`cascade_admits`]) under `Additive`: `E ⊇ MBR(T)`
/// gives `MinDist(qⱼ, E) ≤ MinDist(qⱼ, MBR(T))` term by term as computed,
/// the subtractions, the clamps at zero, the squares, the sum and `sqrt`
/// being monotone under round-to-nearest, so every partial sum of the
/// extent's scan is at most the member's at the same index, and a scan
/// that ends above τ means the member's ends above τ too, at that index or
/// before. `Max` holds each term alike, so where the kernel accepts, every
/// term of the extent's scan is at most the squared distance of a pair the
/// kernel's coupling holds, and its root at most τ.
#[inline]
fn extent_admits(q: SoaView<'_>, q_mbr: &Mbr, tau: f64, extent: &Mbr, walk: &Walk) -> bool {
    let rejects = match walk {
        Walk::Edit { .. } => false,
        _ if !q_mbr.is_empty() && extent.covers(q_mbr) => false,
        Walk::Additive => bounds::point_mbr_sum(q, extent, tau) > tau,
        Walk::Max => bounds::point_mbr_max(q, extent, tau) > tau,
    };
    !rejects
}

/// The exact per-member leaf filter, on the member's own precomputed
/// artifacts: under Additive/Max budgets the ordered-pivot
/// accumulated-minimum-distance test of Lemma 5.1 with the query-to-MBR
/// bound of Lemma 5.4 between its endpoint and pivot levels
/// ([`cascade_admits`]), under [`Walk::Edit`] the edit-family bound. Sound:
/// no level rejects a pair the kernel accepts. Returns the level that
/// decided.
///
/// Shared by the walks' leaf stages and the reference probe. The
/// Additive/Max walks read nothing of the member but its indexing points
/// and its MBR; what only the edit family needs — length, pivot positions,
/// coordinates — comes from `edit_parts`, called on that arm alone, so a
/// DTW or Fréchet probe never touches a member's coordinates.
fn member_admits<'m, I: Iterator<Item = usize>>(
    q: SoaView<'_>,
    tau: f64,
    walk: &Walk,
    index_points: &[Point],
    mbr: &Mbr,
    edit_parts: impl FnOnce() -> (usize, I, SoaView<'m>),
) -> Verdict {
    match *walk {
        Walk::Edit { eps, delta, .. } => {
            let (len, pivot_positions, soa) = edit_parts();
            if edit_family_admits(q, tau, eps, delta, len, index_points, pivot_positions, soa) {
                Verdict::Admits
            } else {
                Verdict::Pivots
            }
        }
        Walk::Additive | Walk::Max => {
            let (a, b) = endpoint_squares(index_points, q);
            let additive = matches!(walk, Walk::Additive);
            cascade_admits(q, tau, additive, index_points, mbr, a, b)
        }
    }
}

/// A member's two squared endpoint distances to query `q`: its first
/// indexing point to the query's first point, and its second, when it has
/// one (`0` otherwise), to the query's last — the squares whose roots the
/// `Additive` / `Max` cascade charges first.
#[inline]
fn endpoint_squares(index_points: &[Point], q: SoaView<'_>) -> (f64, f64) {
    let a = index_points[0].dist_sq(&q.point(0));
    let b = index_points
        .get(1)
        .map_or(0.0, |p| p.dist_sq(&q.point(q.len() - 1)));
    (a, b)
}

/// The `Additive` (`additive`) or `Max` arm of [`member_admits`], handed
/// the member's [`endpoint_squares`] `a` and `b`, cheapest level first: the
/// two endpoint levels on `√a` and `√b` — the very `Point::dist` values —
/// then the query's points against the member's `mbr`, then the ordered
/// suffix scan over the pivots.
///
/// The `mbr` level is Lemma 5.4 point by point,
/// [`bounds::point_mbr_sum`] (`Additive`) or [`bounds::point_mbr_max`]
/// (`Max`) `> τ`, with no slack: those bounds never exceed the kernel's
/// distance as computed (the proofs are on them). It costs O(n) and exits
/// early, where a pivot level is a suffix scan over the query, so it goes
/// first.
#[inline]
fn cascade_admits(
    q: SoaView<'_>,
    tau: f64,
    additive: bool,
    pts: &[Point],
    mbr: &Mbr,
    a: f64,
    b: f64,
) -> Verdict {
    // Level `k` admits down to `−k · step` (see `node_admits`).
    let step = cascade_slack(tau);
    let mut budget = tau;
    if additive {
        budget -= a.sqrt();
        if budget < -step {
            return Verdict::Endpoints;
        }
        if pts.len() > 1 {
            budget -= b.sqrt();
            if budget < -2.0 * step {
                return Verdict::Endpoints;
            }
        }
        if bounds::point_mbr_sum(q, mbr, tau) > tau {
            return Verdict::QueryMbr;
        }
    } else {
        if a.sqrt() > tau || (pts.len() > 1 && b.sqrt() > tau) {
            return Verdict::Endpoints;
        }
        if bounds::point_mbr_max(q, mbr, tau) > tau {
            return Verdict::QueryMbr;
        }
    }
    // Ordered suffix scan over the pivots.
    let mut suffix = 0usize;
    for (level, p) in (3..).zip(&pts[2.min(pts.len())..]) {
        let slack = level as f64 * step;
        let dist_sq = |x, y| p.dist_sq(&Point::new(x, y));
        if additive {
            let allowance = budget + slack;
            let (best_sq, first_ok) = suffix_scan(q, suffix, allowance * allowance, dist_sq);
            budget -= best_sq.sqrt();
            if budget < -slack {
                return Verdict::Pivots;
            }
            suffix = first_ok;
        } else {
            // Squares are compared against the level's allowance, not `τ²`
            // (see `node_admits`).
            let allowance = tau + slack;
            let allowance_sq = allowance * allowance;
            let (best_sq, first_ok) = suffix_scan(q, suffix, allowance_sq, dist_sq);
            if best_sq > allowance_sq {
                return Verdict::Pivots;
            }
            suffix = first_ok;
        }
    }
    Verdict::Admits
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
#[derive(Debug, Clone)]
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

/// A fully built subtree in owned form. Subtrees are constructed one root
/// tile at a time, then numbered and flattened into the node arena in tile
/// order.
pub(crate) struct PendingNode {
    mbr: Mbr,
    /// The union of the MBRs of every member in this subtree: what
    /// [`extent_admits`] holds the query to.
    extent: Mbr,
    depth: u8,
    children: Vec<PendingNode>,
    /// The members stored at this node as positions in the build input —
    /// what [`build_subtree`] leaves here and [`cluster_members`] drains.
    stored: Vec<u32>,
    /// The members stored at this node as local ids: one ascending run.
    members: Range<u32>,
    max_len: u32,
    min_len: u32,
}

/// Splits `members` on their indexing point at `depth` (1-based) into STR
/// tiles, deciding for each tile whether it becomes a leaf.
pub(crate) fn split_tiles(
    prep: &Prepared,
    config: &TrieConfig,
    members: Vec<usize>,
    depth: usize,
) -> Vec<TileSpec> {
    if members.is_empty() {
        return Vec::new();
    }
    let keys: Vec<Point> = members
        .iter()
        .map(|&i| prep.index_points(i)[depth - 1])
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
        let max_len = tile_members.iter().map(|&i| prep.len(i)).max().unwrap_or(0);
        let min_len = tile_members.iter().map(|&i| prep.len(i)).min().unwrap_or(0);

        // Members whose indexing points end here stay in this node; the
        // rest continue to the next level unless the node is small enough
        // to become a leaf.
        let deeper: Vec<usize> = tile_members
            .iter()
            .copied()
            .filter(|&i| prep.index_points(i).len() > depth)
            .collect();
        let is_leaf = tile_members.len() <= config.leaf_capacity || deeper.is_empty();
        let (node_members, deeper) = if is_leaf {
            (tile_members.iter().map(|&i| i as u32).collect(), Vec::new())
        } else {
            let stopped: Vec<u32> = tile_members
                .iter()
                .copied()
                .filter(|&i| prep.index_points(i).len() <= depth)
                .map(|i| i as u32)
                .collect();
            (stopped, deeper)
        };
        out.push(TileSpec {
            mbr,
            depth: u8::try_from(depth).expect("a trie is at most MAX_K + 2 levels deep"),
            node_members,
            deeper,
            max_len,
            min_len,
        });
    }
    out
}

/// Recursively builds the subtree rooted at one tile, its extent bottom-up:
/// the node's own members' MBRs and its children's extents.
pub(crate) fn build_subtree(prep: &Prepared, config: &TrieConfig, spec: TileSpec) -> PendingNode {
    let depth = spec.depth as usize;
    let children: Vec<PendingNode> = split_tiles(prep, config, spec.deeper, depth + 1)
        .into_iter()
        .map(|c| build_subtree(prep, config, c))
        .collect();
    let extent = spec
        .node_members
        .iter()
        .map(|&i| prep.mbr(i as usize))
        .chain(children.iter().map(|c| &c.extent))
        .fold(Mbr::EMPTY, |e, m| e.union(m));
    PendingNode {
        mbr: spec.mbr,
        extent,
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
/// of the pending tree alone, so of the input and the configuration.
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
/// order — and returns the run's node ids.
fn flatten(nodes: &mut FlatNodes, level: Vec<PendingNode>) -> Range<u32> {
    let first = nodes.len() as u32;
    for p in &level {
        nodes.push(
            p.mbr,
            p.extent,
            p.depth,
            p.min_len,
            p.max_len,
            p.members.clone(),
        );
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
    /// `LocalIndex`): [`TrieIndex::build_rows`] over borrows of
    /// `trajectories`.
    pub fn build(trajectories: Vec<Trajectory>, config: TrieConfig) -> Self {
        Self::build_rows(&trajectories.iter().collect::<Vec<_>>(), config)
    }

    /// [`TrieIndex::build`] with a `Duration` that is always zero: a build
    /// starts no helper thread, so there is no helper CPU to report. Kept
    /// only because `benchmark/` calls it (ROADMAP, "Unfreeze `benchmark/`
    /// once and delete everything that waits on it").
    pub fn build_timed(trajectories: Vec<Trajectory>, config: TrieConfig) -> (Self, Duration) {
        (Self::build(trajectories, config), Duration::ZERO)
    }

    /// Builds the index over borrowed rows, in the order given (it decides
    /// the tile sorts' tie-breaks), on the calling thread: a table build's
    /// parallelism is the cluster job that builds one trie a partition, so
    /// its CPU is the task's own and the executor's clock sees all of it.
    /// No row is copied but into the store, once, in leaf order.
    ///
    /// # Panics
    /// Panics on the calling thread when `config.k` exceeds [`MAX_K`].
    pub fn build_rows(rows: &[&Trajectory], config: TrieConfig) -> Self {
        let (prep, order, pending) = build_pending(rows, &config);
        let mut nodes = FlatNodes::with_capacity(count_pending(&pending));
        let roots = flatten(&mut nodes, pending).end;
        let store = TrajStore::pool(rows, &prep, &order);
        TrieIndex {
            config,
            nodes,
            roots,
            store,
        }
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
    /// list surfaces as a `TaskError` — a failed task, aborting its job —
    /// instead of unwinding the worker.
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
    /// [`ProbeScratch`], so repeated probes reuse the walk's buffers.
    pub fn candidates_with_scratch(
        &self,
        q: &[Point],
        tau: f64,
        func: &DistanceFunction,
        scratch: &mut ProbeScratch,
    ) -> (Vec<u32>, FilterStats) {
        let mut out = Vec::new();
        let stats = self.probe(q, tau, func, scratch, |m| out.push(m));
        out.sort_unstable();
        out.dedup();
        (out, stats)
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

    /// Whether a probe of `q` at `tau` under `func` can find anything in
    /// this trie at all: [`extent_admits`] — the test a walk runs on each
    /// node it admits — on the union of the roots' extents, which is the
    /// union of every member's MBR. A search sends a partition no task
    /// when its trie says `false`. An empty trie, an empty query and a
    /// negative `tau` admit nothing, as a probe finds nothing there; the
    /// edit family and ERP, whose nodes are not tested, admit.
    ///
    /// Sound for the reason the node test is: `false` only where
    /// [`bounds::point_mbr_sum`] or [`bounds::point_mbr_max`] of the query
    /// against a rectangle holding every member's points exceeds `tau`.
    pub fn extent_admits(&self, q: SoaView<'_>, tau: f64, func: &DistanceFunction) -> bool {
        if self.is_empty() || q.is_empty() || tau < 0.0 {
            return false;
        }
        let Some(walk) = Walk::of(func) else {
            return true;
        };
        let extent = (0..self.roots).fold(Mbr::EMPTY, |e, r| e.union(self.nodes.extent(r)));
        extent_admits(q, &q.mbr(), tau, &extent, &walk)
    }

    /// The single-query probe for a query already held as two coordinate
    /// arrays — a stored row read in place, a search's prepared query: no
    /// copy, no list. Calls `emit` for every member that survives the whole
    /// funnel, in traversal order (unsorted, free of duplicates: every
    /// member lives in one node), and returns the funnel. The ids are the
    /// ones [`TrieIndex::candidates`] returns for the same points. The walk
    /// is [`TrieIndex::probe_rows`]' own, on a run of one row: the query,
    /// read in place.
    pub fn probe_soa<F: FnMut(u32)>(
        &self,
        q: SoaView<'_>,
        tau: f64,
        func: &DistanceFunction,
        scratch: &mut ProbeScratch,
        mut emit: F,
    ) -> FilterStats {
        let mut stats = FilterStats::default();
        if q.is_empty() || tau < 0.0 {
            return stats;
        }
        let Some(walk) = Walk::of(func) else {
            // Scan mode (ERP): the trie's per-level budgets are unsound, so
            // every stored trajectory is checked, a candidate, and nothing
            // descends.
            stats.members_checked += self.store.len();
            for id in 0..self.store.len() as u32 {
                emit(id);
            }
            return stats;
        };
        let q_mbr = q.mbr();
        let mut emit = |_, m| emit(m);
        let query = |_| (q, &q_mbr);
        self.probe_run(
            &[0],
            query,
            None,
            tau,
            &walk,
            false,
            scratch,
            &mut stats,
            &mut emit,
        );
        stats
    }

    /// [`TrieIndex::probe_soa`] for a query that arrives as points: the
    /// scratch copies them into its two arrays first.
    fn probe<F: FnMut(u32)>(
        &self,
        q: &[Point],
        tau: f64,
        func: &DistanceFunction,
        scratch: &mut ProbeScratch,
        emit: F,
    ) -> FilterStats {
        let (mut xs, mut ys) = (
            std::mem::take(&mut scratch.qx),
            std::mem::take(&mut scratch.qy),
        );
        xs.clear();
        xs.extend(q.iter().map(|p| p.x));
        ys.clear();
        ys.extend(q.iter().map(|p| p.y));
        let query = SoaView { xs: &xs, ys: &ys };
        let stats = self.probe_soa(query, tau, func, scratch, emit);
        (scratch.qx, scratch.qy) = (xs, ys);
        stats
    }

    /// The leaf stages of one row `q` against members `ms` of one node —
    /// the depth-first walk's one member loop. Under `Additive` and `Max`
    /// each member's two squared endpoint distances ([`endpoint_squares`],
    /// read where a node's indexing points lie together in `ips`) go to the
    /// block screen first: [`squared_rejects`] against `lim` =
    /// [`screen_limit`]`(τ)`, in squared space, with no `sqrt`. What it
    /// leaves runs the unchanged cascade ([`member_admits`]' own arm,
    /// handed the same two squares and the member's MBR), and a screened
    /// member is counted as the cascade would count it — checked, pruned by
    /// OPAMD — so the funnel is the cascade's alone. The edit walks run
    /// [`TrieIndex::member_survives`] on every member. Returns the member tests decided on the endpoints: by the
    /// screen, and by the cascade's endpoint levels behind it.
    ///
    /// **Why a screened member is one the cascade rejects.** Write `a`, `b`
    /// for the two squares as computed, `A = fl(√a)`, `B = fl(√b)` for the
    /// distances the cascade takes, `u = ε/2`. Suppose the `Additive`
    /// cascade admits both levels: `fl(τ − A) ≥ −2ε·τ` and `fl(fl(τ − A) −
    /// B) ≥ −4ε·τ` ([`cascade_slack`]). Each subtraction rounds by at most
    /// `u·τ`, so `A + B ≤ τ·(1 + 10u)` in ℝ; `√a ≤ A/(1 − u)`, likewise
    /// `b`, and `a + b ≤ (√a + √b)²` — the lemma `√(a² + b²) ≤ a + b`
    /// squared — so `a + b ≤ τ²·(1 + 23u)`, and after the sum's own
    /// rounding `fl(a + b) ≤ τ²·(1 + 24u)`. The limit is at least
    /// `τ²·(1 − u)²·(1 + κ)` with `κ = 64ε = 128u`: above it, so the screen
    /// admits. `Max` admits both levels only with `A ≤ τ` and `B ≤ τ`,
    /// hence `a, b ≤ τ²·(1 + 3u)`. A member with one indexing point has
    /// `b = 0`, and the cascade subtracts (compares) `A` alone. Below the
    /// normal range `screen_limit` lifts `τ²` to the smallest normal number:
    /// the bound above is then under it, and the limit is exact. A NaN
    /// anywhere — coordinate or τ — compares false and admits; an infinite
    /// square rejects only against a finite limit, where `A` or `B` is
    /// infinite and the cascade rejects too; an infinite limit admits
    /// everything.
    #[allow(clippy::too_many_arguments)]
    fn screen_members(
        &self,
        ms: Range<u32>,
        q: SoaView<'_>,
        tau: f64,
        lim: f64,
        walk: &Walk,
        stats: &mut FilterStats,
        mut emit: impl FnMut(u32),
    ) -> EndpointRejects {
        let mut ends = EndpointRejects::default();
        let Some(sum) = walk.squared_sum() else {
            for m in ms {
                if self.member_survives(m, q, tau, walk, walk.is_edr(), stats) {
                    emit(m);
                }
            }
            return ends;
        };
        for m in ms {
            let e = self.store.entry(m as usize);
            let ips = e.index_points();
            let (a, b) = endpoint_squares(ips, q);
            let verdict = if squared_rejects(a, b, sum, lim) {
                ends.screen += 1;
                Verdict::Endpoints
            } else {
                let verdict = cascade_admits(q, tau, sum, ips, e.mbr(), a, b);
                ends.levels += (verdict == Verdict::Endpoints) as usize;
                verdict
            };
            stats.members_checked += 1;
            if stats.record(verdict) {
                emit(m);
            }
        }
        ends
    }

    /// The leaf stages on stored member `m`, counted into `stats`: the
    /// exact EDR length bound, then [`member_admits`] — the exact
    /// per-trajectory OPAMD filter (Lemma 5.1) over the member's own
    /// indexing points; the node MBRs above only bounded groups.
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
        if edr && bounds::length_bound_edr(e.len(), query.len(), tau) {
            stats.members_pruned_length += 1;
            return false;
        }
        stats.record(member_admits(
            query,
            tau,
            walk,
            e.index_points(),
            e.mbr(),
            || (e.len(), e.pivots().iter().map(|&p| p as usize), e.soa()),
        ))
    }

    /// The two verdicts the leaf stages combine for stored member `m` and
    /// query `q`, apart: `(screen, cascade)` — whether the block screen
    /// ([`TrieIndex::screen_members`], the walk's own member loop) lets the
    /// pair through, and whether the exact cascade ([`member_admits`]: the
    /// endpoint levels, the query-to-MBR bound and the pivot levels, or the
    /// edit count) admits it. A probe tests a member only if the screen
    /// lets it through, so its candidates are the cascade's exactly when
    /// `cascade` implies `screen`: the soundness oracle holds the two
    /// against each other, and the cascade against the kernel. Functions
    /// whose members are not screened report `screen` as `true`; `Scan`
    /// (ERP) admits every member.
    pub fn leaf_verdicts(
        &self,
        m: u32,
        q: SoaView<'_>,
        tau: f64,
        func: &DistanceFunction,
    ) -> (bool, bool) {
        let Some(walk) = Walk::of(func) else {
            return (true, true);
        };
        let mut stats = FilterStats::default();
        let lim = screen_limit(tau);
        let ends = self.screen_members(m..m + 1, q, tau, lim, &walk, &mut stats, |_| {});
        let e = self.store.entry(m as usize);
        let cascade = member_admits(q, tau, &walk, e.index_points(), e.mbr(), || {
            (e.len(), e.pivots().iter().map(|&p| p as usize), e.soa())
        });
        (ends.screen == 0, cascade == Verdict::Admits)
    }

    /// The subtree test's verdicts ([`extent_admits`]) for stored member `m`
    /// and query `q`, one per node on the member's path, root first:
    /// whether each extent `m` lies under admits the query. A single-query
    /// probe tests `m` only if every one of them is `true`: the soundness
    /// oracle holds them against the kernel. Functions whose nodes are not
    /// tested (the edit family, `Scan`) report `true` throughout.
    ///
    /// # Panics
    /// Panics when `m` is out of range.
    pub fn extent_verdicts(
        &self,
        m: u32,
        q: SoaView<'_>,
        tau: f64,
        func: &DistanceFunction,
    ) -> Vec<bool> {
        assert!((m as usize) < self.len(), "member out of range");
        // Member runs tile `0..len` in node order.
        let all = self.nodes.recs(0..self.nodes.len() as u32);
        let owner = all.partition_point(|r| r.members().end <= m) as u32;
        // A node's descendants are consecutive ids, following its
        // siblings' in sibling order: the owner's ancestor in a run of
        // siblings is the last one whose children start at or before it.
        let mut path = Vec::new();
        let mut level = 0..self.roots;
        while !level.contains(&owner) {
            let up = level
                .clone()
                .rev()
                .find(|&p| {
                    let kids = self.nodes.rec(p).children();
                    !kids.is_empty() && kids.start <= owner
                })
                .expect("every node lies under one of the roots");
            path.push(up);
            level = self.nodes.rec(up).children();
        }
        path.push(owner);
        debug_assert_eq!(path.len(), self.nodes.rec(owner).depth as usize);
        let walk = Walk::of(func);
        let q_mbr = q.mbr();
        let admits = |id: u32| {
            let extent = self.nodes.extent(id);
            walk.as_ref()
                .is_none_or(|w| extent_admits(q, &q_mbr, tau, extent, w))
        };
        path.into_iter().map(admits).collect()
    }

    /// The reference the walk is held to: the candidates, ascending, and
    /// the funnel of a single-query probe of `q`, found without the walk's
    /// traversal. The arena is visited in id order with no stack; each node
    /// takes the `(budget, suffix)` its parent handed down, the roots
    /// `(τ, 0)`, as [`TrieIndex::endpoint_members`] hands down its distance.
    /// A node so reached runs [`node_admits`], then [`extent_admits`]; one
    /// that passes hands its children the new state, and each of its members
    /// runs [`TrieIndex::member_survives`] — the cascade alone, with no
    /// block screen. Member runs tile `0..len` in node order, so the ids come
    /// out sorted. A different order and no screen make it an independent
    /// check of the walk's stack, its budget hand-down and the screen's
    /// counting; it has no caller outside the tests.
    pub fn reference_candidates(
        &self,
        q: SoaView<'_>,
        tau: f64,
        func: &DistanceFunction,
    ) -> (Vec<u32>, FilterStats) {
        let mut stats = FilterStats::default();
        if q.is_empty() || tau < 0.0 {
            return (Vec::new(), stats);
        }
        let Some(walk) = Walk::of(func) else {
            stats.members_checked += self.len();
            return ((0..self.len() as u32).collect(), stats);
        };
        let q_mbr = q.mbr();
        let mut out = Vec::new();
        // `None` below a pruned node.
        let mut handed: Vec<Option<(f64, usize)>> = vec![None; self.nodes.len()];
        handed[..self.roots as usize].fill(Some((tau, 0)));
        let recs = self.nodes.recs(0..self.nodes.len() as u32);
        for (rec, id) in recs.iter().zip(0..) {
            let Some((budget, suffix)) = handed[id as usize] else {
                continue;
            };
            stats.nodes_visited += 1;
            let extent = self.nodes.extent(id);
            let admitted = node_admits(rec, q, tau, budget, suffix, &walk).and_then(|state| {
                if extent_admits(q, &q_mbr, tau, extent, &walk) {
                    Ok(state)
                } else {
                    Err(Prune::Extent)
                }
            });
            let state = match admitted {
                Ok(state) => state,
                Err(stage) => {
                    stats.prune(stage);
                    continue;
                }
            };
            let kids = rec.children();
            handed[kids.start as usize..kids.end as usize].fill(Some(state));
            for m in rec.members() {
                if self.member_survives(m, q, tau, &walk, walk.is_edr(), &mut stats) {
                    out.push(m);
                }
            }
        }
        (out, stats)
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
    /// STR tile of the source — near each other in space. This trie is
    /// walked once for the whole run, depth first ([`TrieIndex::probe_run`],
    /// the walk a single query takes as a run of one). A run of several
    /// rows is summarised by three rectangles read from the store
    /// ([`RunRects`]), and in front of every node stands one rectangle
    /// test, [`run_admits`]; behind it each row still alive at the parent
    /// runs its own unchanged [`node_admits`] with the `(budget, suffix)`
    /// its own cascade handed down, then [`extent_admits`] against the
    /// node's extent, and at a node that owns members each row alive there
    /// runs the leaf stages ([`TrieIndex::screen_members`]): the block
    /// screen decides most (row, member) pairs in squared space, and the
    /// unchanged cascade decides the rest. A run of one row is its own
    /// rectangle and skips the rectangle test, which rejects a node only
    /// where the row's own level test rejects it, and under the same stage
    /// (the interval test is the same one; see below for the distances).
    ///
    /// **Why the pairs are exactly the per-row probe's.** Behind the
    /// rectangle test everything a row meets is what it meets as a run of
    /// one, its own single-query probe: the same functions on the same
    /// operands in the same order. So it is enough that the rectangle test
    /// rejects a node only if *every* row alive at the parent would reject
    /// it itself, and that is Lemma 5.1 with `MinDist(MBR, MBR) ≤
    /// MinDist(point, MBR)`, which also holds term by term in `f64`:
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
    ///   a NaN compares false on both sides: nothing is pruned). `Max`
    ///   rejects on `d > budget`: `d_row ≥ d_run > budget_max ≥
    ///   budget_row`. `Additive` rejects on `budget − d < −slack` with the
    ///   level's slack (see [`node_admits`]): `budget_row − d_row ≤
    ///   budget_max − d_run < −slack`, subtraction being monotone in both
    ///   operands. `Edit` rejects when the level is charged and no edit
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
    /// position, an indexing point to the band around its own position, a
    /// point to the row's own MBR, which contains it — is `+0.0`, so no
    /// budget shrinks, no bound exceeds τ and no edit is charged (with
    /// non-finite coordinates the distances are NaN, which rejects nothing
    /// either). Whether the row gets as far as its own node is still
    /// decided by its own cascade.
    ///
    /// The funnel counts what this walk does: `nodes_visited` one a (run,
    /// node) test — the rectangle test, or a run of one's own level test —
    /// a node as pruned when the rectangles reject it or no row survives
    /// its own tests (under `node-budget` when some row's level test
    /// rejected it on its budget, else under `node-extent` when some row's
    /// extent test did), `members_checked` (row, member) pairs that reach
    /// the leaf stages (a screened pair as the cascade counts it). Its
    /// survivors are the pairs emitted; a run of one counts what its
    /// single-query probe counts.
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
                let rects = (run.len() > 1).then(|| run_rects(&src.store, run));
                let row = |sid: u32| {
                    let e = src.store.entry(sid as usize);
                    (e.soa(), e.mbr())
                };
                self.probe_run(
                    run,
                    row,
                    rects.as_ref(),
                    tau,
                    &walk,
                    diagonal,
                    scratch,
                    &mut stats,
                    &mut emit,
                );
            }
        }
        stats
    }

    /// One depth-first walk of this trie for one run of rows (see
    /// [`TrieIndex::probe_rows`]); a single query is a run of one
    /// ([`TrieIndex::probe_soa`]). `row` reads a row's points and MBR by
    /// its id, so the walk never knows whether it holds a query or stored
    /// rows; `rects`, the run's summary, is `None` for a run of one, which
    /// skips [`run_admits`]. The open nodes are one stack of `(node, row)`
    /// entries, the rows alive at a node adjacent; expanding a node moves
    /// its rows off the stack. A node's children are tested when its
    /// expansion pushes them, and a child's extent is read only once a
    /// row's level test admitted it.
    #[allow(clippy::too_many_arguments)]
    fn probe_run<'r, F: FnMut(u32, u32)>(
        &self,
        run: &[u32],
        row: impl Fn(u32) -> (SoaView<'r>, &'r Mbr),
        rects: Option<&RunRects>,
        tau: f64,
        walk: &Walk,
        diagonal: bool,
        scratch: &mut ProbeScratch,
        stats: &mut FilterStats,
        emit: &mut F,
    ) {
        let lim = screen_limit(tau);
        // The first member row `sid` is paired with: on a diagonal edge the
        // members before it are left to those rows' own probes.
        let lowest = |sid: u32| if diagonal { sid } else { 0 };
        let ProbeScratch {
            open, alive, ends, ..
        } = scratch;
        open.clear();
        alive.clear();
        // Above the roots the whole run is alive, with the full budget and
        // no suffix discarded.
        let (budget, suffix) = (tau, 0);
        alive.extend(run.iter().map(|&sid| RowState {
            sid,
            budget,
            suffix,
        }));
        // The children of the node whose rows `alive` holds: the roots first.
        let mut level = 0..self.roots;
        loop {
            // The rectangle test holds a run to the largest budget any of
            // its rows holds.
            let top = rects.map_or(tau, |_| {
                let larger = |b: f64, r: &RowState| if r.budget > b { r.budget } else { b };
                alive.iter().fold(alive[0].budget, larger)
            });
            for (id, rec) in level.clone().zip(self.nodes.recs(level)) {
                // On a diagonal edge, a leaf none of whose members any row
                // of the run is paired with is not even tested.
                if diagonal && rec.children().is_empty() && rec.members().end <= run[0] {
                    continue;
                }
                stats.nodes_visited += 1;
                if let Some(Err(stage)) = rects.map(|r| run_admits(r, rec, tau, top, walk)) {
                    stats.prune(stage);
                    continue;
                }
                let pushed = open.len();
                // Where every row rejects the node, the stage it counts under.
                let mut pruned = Prune::Length;
                for &r in alive.iter() {
                    let (q, q_mbr) = row(r.sid);
                    match node_admits(rec, q, tau, r.budget, r.suffix, walk) {
                        Err(stage) => pruned = pruned.max(stage),
                        Ok(_) if !extent_admits(q, q_mbr, tau, self.nodes.extent(id), walk) => {
                            pruned = pruned.max(Prune::Extent)
                        }
                        Ok((budget, suffix)) => open.push((
                            id,
                            RowState {
                                budget,
                                suffix,
                                ..r
                            },
                        )),
                    }
                }
                if open.len() == pushed {
                    stats.prune(pruned);
                }
            }
            // Expand the node on top: its rows are the entries above the
            // first one that belongs to another node (each node is pushed
            // once, by its parent's expansion).
            let Some(&(id, _)) = open.last() else {
                return;
            };
            let first = open
                .iter()
                .rposition(|&(n, _)| n != id)
                .map_or(0, |i| i + 1);
            alive.clear();
            alive.extend(open.drain(first..).map(|(_, r)| r));
            let rec = self.nodes.rec(id);
            let members = rec.members();
            for r in alive.iter() {
                let sid = r.sid;
                let mut lo = members.start.max(lowest(sid));
                if diagonal && members.contains(&sid) {
                    // A row alive at the node that owns it survives the
                    // leaf stages against itself without running them.
                    stats.members_checked += 1;
                    emit(sid, sid);
                    lo = sid + 1;
                }
                if lo < members.end {
                    let (q, _) = row(sid);
                    let ms = lo..members.end;
                    *ends += self.screen_members(ms, q, tau, lim, walk, stats, |m| emit(sid, m));
                }
            }
            level = rec.children();
        }
    }

    /// The stored rows whose endpoints the endpoint-pair rule
    /// ([`IndexMode::endpoints_admit`]) admits against the opposite side of
    /// a join — the rectangles `first` and `last` of its members' first and
    /// last points and its shortest length `other_min_len` — as ascending
    /// local ids: the rows the join planner ships (§6.2, "check whether T
    /// has candidates in Q_j"). Exactly the rows `t` with
    /// `mode.endpoints_admit(first.min_dist_point(t.first),
    /// last.min_dist_point(t.last), t.len, other_min_len, τ)`.
    ///
    /// **A walk, not a scan.** The node arena is visited in id order, which
    /// is the order the nodes own their members in, so the ids come out
    /// ascending. A depth-1 node (its MBR bounds the first points of its
    /// whole subtree) is put to `endpoints_admit(MinDist(first, node.mbr),
    /// 0, node.min_len, other_min_len, τ)`, a depth-2 node to the same rule
    /// with its ancestor's first-point distance and `MinDist(last,
    /// node.mbr)`; a rejected node takes its subtree with it, and deeper
    /// nodes are not tested. Sound, because `MinDist(MBR, MBR) ≤
    /// MinDist(point, MBR)` for a point inside the MBR holds term by term
    /// in `f64` (see [`TrieIndex::probe_rows`]), the rule admits less as
    /// either distance grows (`+`, `max` and `>` are monotone as computed),
    /// a node's `min_len` is at most every member's length and a shorter
    /// side only switches the rule to its more permissive arm (`max` for
    /// `+`, one edit for two), and `0` stands in for a distance not yet
    /// known.
    ///
    /// **Members** of an admitted node take the squared screen
    /// ([`squared_rejects`]) on the two squared distances first, then the
    /// exact rule on their square roots — the very values the rule's
    /// `min_dist_point` takes. The screen sums under `Additive` (both
    /// sides longer than one point) and holds each square alone under `Max`
    /// and `Additive`'s one-cell arm; the edit family and `Scan` are not
    /// screened. It rejects only what the rule rejects: the rule admitting
    /// means `fl(df + dl) ≤ τ`, so `a + b ≤ (√a + √b)² ≤ τ²·(1 + 6u)` with
    /// `df = fl(√a)`, or `df, dl ≤ τ`, so `a, b ≤ τ²·(1 + 3u)` — below
    /// [`screen_limit`]`(τ)` either way (the margins on
    /// [`TrieIndex::screen_members`]).
    pub fn endpoint_members(
        &self,
        first: &Mbr,
        last: &Mbr,
        other_min_len: usize,
        tau: f64,
        mode: IndexMode,
    ) -> Vec<u32> {
        let lim = screen_limit(tau);
        let mut out = Vec::new();
        // The first-point distance each node inherits from an admitted
        // parent; `None` below a rejected node. The roots (depth 1) take
        // their own.
        let mut inherited: Vec<Option<f64>> = vec![None; self.nodes.len()];
        inherited[..self.roots as usize].fill(Some(0.0));
        let recs = self.nodes.recs(0..self.nodes.len() as u32);
        for (rec, id) in recs.iter().zip(0..) {
            let Some(df) = inherited[id] else {
                continue;
            };
            let min_len = rec.min_len as usize;
            let df = match rec.depth {
                1 => first.min_dist_mbr(&rec.mbr),
                _ => df,
            };
            let admits = match rec.depth {
                1 => mode.endpoints_admit(df, 0.0, min_len, other_min_len, tau),
                2 => {
                    let dl = last.min_dist_mbr(&rec.mbr);
                    mode.endpoints_admit(df, dl, min_len, other_min_len, tau)
                }
                _ => true,
            };
            if !admits {
                continue;
            }
            for m in rec.members() {
                let e = self.store.entry(m as usize);
                // A row's first and last points are its first two indexing
                // points (one, for a single point), and a node's lie
                // together in `ips`.
                let ips = e.index_points();
                let a = first.min_dist_point_sq(&ips[0]);
                let b = last.min_dist_point_sq(ips.get(1).unwrap_or(&ips[0]));
                let one_cell = e.len() <= 1 && other_min_len <= 1;
                let screened = match mode {
                    IndexMode::Additive => squared_rejects(a, b, !one_cell, lim),
                    IndexMode::Max => squared_rejects(a, b, false, lim),
                    IndexMode::EditCount { .. } | IndexMode::Scan => false,
                };
                if !screened
                    && mode.endpoints_admit(a.sqrt(), b.sqrt(), e.len(), other_min_len, tau)
                {
                    out.push(m);
                }
            }
            let kids = rec.children();
            inherited[kids.start as usize..kids.end as usize].fill(Some(df));
        }
        out
    }

    /// The members whose endpoints lie nearest `(first, last)`: up to `m`
    /// `(score, local id)` pairs with `score = |t₁ − first| + |tₘ − last|`
    /// at most `limit`, among the members `keep` admits, ascending by score
    /// then id.
    ///
    /// Nodes are visited best-first by a lower bound on the score of every
    /// member beneath them: the MinDist of `first` to the depth-1 (first
    /// point) MBR, plus that of `last` to the depth-2 (last point) MBR,
    /// inherited unchanged by the pivot levels. The walk stops when the
    /// next node's bound exceeds the `m`-th best score found, so a dense
    /// neighbourhood is answered from a few leaves.
    pub fn nearest_endpoints(
        &self,
        first: &Point,
        last: &Point,
        m: usize,
        limit: f64,
        keep: impl Fn(u32) -> bool,
    ) -> Vec<(f64, u32)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Scores and bounds are non-negative, so their bit patterns order
        // like their values: `(bits, id)` keys order by score, then id.
        let key = |v: f64, id: u32| (v.to_bits(), id);
        let mut best: BinaryHeap<(u64, u32)> = BinaryHeap::with_capacity(m + 1);
        let worst = |best: &BinaryHeap<(u64, u32)>| match best.peek() {
            Some(&(bits, _)) if best.len() >= m => f64::from_bits(bits),
            _ => limit,
        };
        let mut open: BinaryHeap<Reverse<(u64, u32)>> = (0..self.roots)
            .map(|id| Reverse(key(self.nodes.rec(id).mbr.min_dist_point(first), id)))
            .collect();
        while let Some(Reverse((bits, id))) = open.pop() {
            let bound = f64::from_bits(bits);
            if m == 0 || bound > worst(&best) {
                break;
            }
            let rec = self.nodes.rec(id);
            for c in rec.members().filter(|&c| keep(c)) {
                let e = self.store.entry(c as usize);
                let score = first.dist(&e.first()) + last.dist(&e.last());
                if score <= worst(&best) {
                    best.push(key(score, c));
                    if best.len() > m {
                        best.pop();
                    }
                }
            }
            for kid in rec.children() {
                let krec = self.nodes.rec(kid);
                let b = match krec.depth {
                    1 => krec.mbr.min_dist_point(first),
                    2 => bound + krec.mbr.min_dist_point(last),
                    _ => bound,
                };
                open.push(Reverse(key(b, kid)));
            }
        }
        let mut out: Vec<(f64, u32)> = best
            .into_iter()
            .map(|(bits, c)| (f64::from_bits(bits), c))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
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

/// The run-level form of [`node_admits`]: the stage that pruned the node
/// only when every row of the run whose own budget is at most `budget`
/// would reject the node itself at that stage (the proof is on
/// [`TrieIndex::probe_rows`]).
fn run_admits(
    run: &RunRects,
    rec: &NodeRec,
    tau: f64,
    budget: f64,
    walk: &Walk,
) -> Result<(), Prune> {
    let (min_len, max_len) = (run.min_len as f64, run.max_len as f64);
    if walk.is_edr() && edr_lengths_apart(rec.min_len, rec.max_len, min_len, max_len, tau) {
        return Err(Prune::Length);
    }
    let rect = match (rec.depth, walk) {
        (1, Walk::Additive | Walk::Max) => &run.first,
        (2, Walk::Additive | Walk::Max) => &run.last,
        _ => &run.all,
    };
    let d = rect.min_dist_mbr(&rec.mbr);
    let rejects = match *walk {
        // A row rejects on `budget_row − d_row < −slack`; `f64` subtraction
        // is monotone, so `budget − d` bounds every row's from above.
        Walk::Additive => budget - d < -(rec.depth as f64 * cascade_slack(tau)),
        Walk::Max => d > budget,
        Walk::Edit { eps, delta, .. } => {
            d > eps && (delta.is_none() || rec.max_len <= run.min_len) && budget < 1.0
        }
    };
    if rejects {
        Err(Prune::Budget)
    } else {
        Ok(())
    }
}

/// The first half of a trie build, before [`flatten`]: per-trajectory
/// preprocessing, then root-tile splitting with per-tile subtree
/// construction, then the pass that hands out the local ids
/// ([`cluster_members`]). Returns the preprocessing arenas in input order,
/// the order vector (`order[i]` is the input position of local id `i`) and
/// the pending subtrees in tile order with their members as local ids.
/// Kept apart from [`flatten`] so the tests can hold the arena to the very
/// tree it encodes.
fn build_pending(
    rows: &[&Trajectory],
    config: &TrieConfig,
) -> (Prepared, Vec<u32>, Vec<PendingNode>) {
    assert!(
        config.k <= MAX_K,
        "k = {} exceeds MAX_K = {MAX_K}: node depths are u8",
        config.k
    );
    // --- 1. Per-row preprocessing (pivots, indexing points, MBR, length) ---
    let prep = Prepared::of(rows, config.k, config.strategy);

    // --- 2. Tree construction: the root level, then each root tile's
    // subtree in tile order ---
    let all: Vec<usize> = (0..rows.len()).collect();
    let mut pending: Vec<PendingNode> = split_tiles(&prep, config, all, 1)
        .into_iter()
        .map(|tile| build_subtree(&prep, config, tile))
        .collect();
    let mut order = Vec::with_capacity(rows.len());
    cluster_members(&mut pending, &mut order);
    (prep, order, pending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dita_rng::{prop_assert, prop_assert_eq};
    use dita_trajectory::trajectory::figure1_trajectories;

    fn fig1_config(nl: usize, k: usize) -> TrieConfig {
        TrieConfig {
            k,
            nl,
            leaf_capacity: 0,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 2.0,
            ..TrieConfig::default()
        }
    }

    fn fig1_index(nl: usize, k: usize) -> TrieIndex {
        TrieIndex::build(figure1_trajectories(), fig1_config(nl, k))
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
                        stats.nodes_pruned_length
                            + stats.nodes_pruned_budget
                            + stats.nodes_pruned_extent
                    );
                    assert_eq!(
                        stats.members_rejected(),
                        stats.members_pruned_length
                            + stats.members_pruned_opamd
                            + stats.members_pruned_mbr
                    );
                    // Stage chaining: each stage enters what survived the
                    // one before it.
                    assert_eq!(funnel.stages[1].entered, funnel.stages[0].survivors());
                    assert_eq!(funnel.stages[2].entered, funnel.stages[1].survivors());
                    assert_eq!(funnel.stages[4].entered, funnel.stages[3].survivors());
                    assert_eq!(funnel.stages[5].entered, funnel.stages[4].survivors());
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
        assert_eq!(
            m.members_pruned_mbr,
            a.members_pruned_mbr + b.members_pruned_mbr
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
        for k in [0, 1, 2, 3, MAX_K] {
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

    /// Node depths are `u8`s, so a `k` above [`MAX_K`] is refused on the
    /// calling thread, however short the rows are.
    #[test]
    #[should_panic(expected = "exceeds MAX_K")]
    fn a_k_above_max_k_is_refused() {
        fig1_index(2, MAX_K + 1);
    }

    /// Random walks over [0, 8]², 1–40 points, ids `1..=n`.
    fn seeded_rows(n: usize, seed: u64) -> Vec<Trajectory> {
        dita_datagen::random_walks(n, seed, 1..=40, 8.0, 0.6)
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

    /// The builds the layout tests run on: Figure 1 at three trie shapes,
    /// and 2 000 seeded rows at four leaf capacities and thread counts.
    fn layout_shapes() -> Vec<(Vec<Trajectory>, TrieConfig)> {
        let fig1 =
            [(2, 2), (2, 0), (3, 3)].map(|(nl, k)| (figure1_trajectories(), fig1_config(nl, k)));
        let rows = seeded_rows(2000, 0x5eed_1901);
        let seeded = [(16, 1), (16, 4), (0, 1), (3, 2)].map(|(leaf_capacity, build_threads)| {
            let config = TrieConfig {
                k: 4,
                nl: 8,
                leaf_capacity,
                build_threads,
                ..TrieConfig::default()
            };
            (rows.clone(), config)
        });
        fig1.into_iter().chain(seeded).collect()
    }

    #[test]
    fn store_is_leaf_clustered_and_nodes_are_range_addressed() {
        for (rows, config) in layout_shapes() {
            assert_leaf_clustered(&TrieIndex::build(rows.clone(), config), &rows);
        }
    }

    /// The arena encodes the tree the build flattened, node for node: walked
    /// beside the build's pending tree, every record's level MBR, depth,
    /// length range and member run, its extent, and its children's ids and
    /// order match — siblings as consecutive records, each run's subtrees
    /// depth first.
    #[test]
    fn the_arena_is_the_pending_tree_it_flattens() {
        fn walk(index: &TrieIndex, level: &[PendingNode], ids: Range<u32>, next: &mut u32) {
            assert_eq!(ids, *next..*next + level.len() as u32, "a run of siblings");
            *next = ids.end;
            for (p, id) in level.iter().zip(ids.clone()) {
                let rec = index.nodes.rec(id);
                let got = (rec.mbr, rec.depth, rec.min_len, rec.max_len, rec.members());
                let want = (p.mbr, p.depth, p.min_len, p.max_len, p.members.clone());
                assert_eq!(got, want, "node {id}");
                assert_eq!(*index.nodes.extent(id), p.extent, "node {id}: extent");
            }
            for (p, id) in level.iter().zip(ids) {
                walk(index, &p.children, index.nodes.rec(id).children(), next);
            }
        }
        for (rows, config) in layout_shapes() {
            let (_, _, pending) = build_pending(&rows.iter().collect::<Vec<_>>(), &config);
            let index = TrieIndex::build(rows, config);
            let mut next = 0;
            walk(&index, &pending, 0..index.roots, &mut next);
            assert_eq!(next as usize, index.nodes.len(), "every record walked");
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

    dita_rng::proptest! {
        #![proptest_config(dita_rng::prop::ProptestConfig::with_cases(48))]

        /// [`suffix_scan`] returns the retired scalar loops' `best_sq` bit
        /// for bit and their `first_ok`, for a node's rectangle and for a
        /// member's point, at every suffix (the empty one included), for
        /// query lengths on and off the lane count, for budgets that find
        /// an anchor and budgets that do not, and for a target lying on a
        /// query point.
        #[test]
        fn suffix_scan_matches_the_retired_scalar_loops(
            coords in dita_rng::prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..71),
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
            let soa = SoaPoints::from_points(&q);
            let query = soa.view();
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

    /// The share of member tests the block screen decides with no `sqrt`,
    /// pinned on this module's seeded rows probing their own trie — a leaf
    /// of rows at a time as the local join's diagonal edge does, and one
    /// row at a time as a search does. A screened member is counted as
    /// one the cascade pruned, so the screen's count never exceeds that.
    #[test]
    fn the_block_screen_decides_most_member_tests() {
        let trie = TrieIndex::build(seeded_rows(2000, 0x5eed_2601), TrieConfig::default());
        let ids: Vec<u32> = (0..trie.len() as u32).collect();
        let mut shares = Vec::new();
        for (func, tau) in [
            (DistanceFunction::Dtw, 0.5),
            (DistanceFunction::Frechet, 0.2),
        ] {
            let mut scratch = ProbeScratch::new();
            let run = trie.probe_rows(&trie, &ids, tau, &func, &mut scratch, |_, _| {});
            let run_screened = scratch.endpoint_rejects().screen;
            let mut scratch = ProbeScratch::new();
            let mut one = FilterStats::default();
            for &s in &ids {
                one.merge(&trie.probe_soa(trie.get(s).soa(), tau, &func, &mut scratch, |_| {}));
            }
            let one_screened = scratch.endpoint_rejects().screen;
            assert!(run_screened <= run.members_pruned_opamd, "{func}");
            assert!(one_screened <= one.members_pruned_opamd, "{func}");
            shares.push((
                func.name(),
                (run_screened, run.members_checked),
                (one_screened, one.members_checked),
            ));
        }
        // Of the member tests the node extents leave, the endpoints alone
        // decide more than half of a leaf of rows' (64 %, 52 %) and three in
        // four of a single row's.
        let want = vec![
            ("dtw", (5_299, 8_235), (14_400, 18_924)),
            ("frechet", (2_248, 4_313), (7_518, 9_782)),
        ];
        assert_eq!(
            shares, want,
            "(screened, member tests): a leaf of rows, one row"
        );
    }

    /// What each stage of the member test decides, pinned on the same
    /// seeded rows at two thresholds per function — a leaf of rows at a
    /// time and one row at a time, as above: `[screen, endpoint levels,
    /// query-to-MBR bound, pivot levels, admitted]`, which add up to the
    /// member tests. The bound runs ahead of the pivot levels, so every
    /// member it rejects is one suffix scan per pivot not run.
    #[test]
    fn each_member_stage_decides_its_pinned_share() {
        let trie = TrieIndex::build(seeded_rows(2000, 0x5eed_2601), TrieConfig::default());
        let ids: Vec<u32> = (0..trie.len() as u32).collect();
        let split = |stats: &FilterStats, scratch: &ProbeScratch| {
            let ends = scratch.endpoint_rejects();
            [
                ends.screen,
                ends.levels,
                stats.members_pruned_mbr,
                stats.members_pruned_opamd - ends.screen - ends.levels,
                stats.candidates(),
            ]
        };
        let mut got = Vec::new();
        for (func, tau) in [
            (DistanceFunction::Dtw, 0.5),
            (DistanceFunction::Dtw, 2.0),
            (DistanceFunction::Frechet, 0.2),
            (DistanceFunction::Frechet, 0.5),
        ] {
            let mut scratch = ProbeScratch::new();
            let run = trie.probe_rows(&trie, &ids, tau, &func, &mut scratch, |_, _| {});
            let run = split(&run, &scratch);
            let mut scratch = ProbeScratch::new();
            let mut one = FilterStats::default();
            for &s in &ids {
                one.merge(&trie.probe_soa(trie.get(s).soa(), tau, &func, &mut scratch, |_| {}));
            }
            got.push((func.name(), tau, run, split(&one, &scratch)));
        }
        // Under Fréchet the screen leaves the endpoint levels nothing to
        // decide. Under DTW at τ = 2 the bound rejects 29 % (a leaf of rows)
        // and 41 % (one row) of the tests that get past the endpoints, before
        // any pivot is scanned; the node extents have already pruned most
        // of the members it would reject.
        let want = vec![
            (
                "dtw",
                0.5,
                [5_299, 558, 140, 217, 2_021],
                [14_400, 1_007, 1_085, 391, 2_041],
            ),
            (
                "dtw",
                2.0,
                [8_952, 16_097, 8_759, 16_570, 5_384],
                [21_772, 29_680, 27_047, 30_887, 8_637],
            ),
            (
                "frechet",
                0.2,
                [2_248, 0, 22, 36, 2_007],
                [7_518, 0, 189, 62, 2_013],
            ),
            (
                "frechet",
                0.5,
                [9_725, 0, 374, 623, 3_190],
                [23_134, 0, 1_518, 1_168, 4_321],
            ),
        ];
        assert_eq!(
            got, want,
            "[screen, endpoint levels, bound, pivot levels, admitted]: a leaf of rows, one row"
        );
    }

    /// What the subtree test decides, pinned on the same seeded rows at the
    /// same thresholds, a leaf of rows at a time and one row at a time:
    /// `[nodes visited, level test prunes, extent prunes, member tests,
    /// admitted]`. The admitted columns are what the member test alone
    /// admitted before nodes carried extents: the test only takes work away.
    #[test]
    fn the_extent_prunes_its_pinned_share_of_nodes() {
        let trie = TrieIndex::build(seeded_rows(2000, 0x5eed_2601), TrieConfig::default());
        let ids: Vec<u32> = (0..trie.len() as u32).collect();
        let nodes = |f: FilterStats| {
            [
                f.nodes_visited,
                f.nodes_pruned_budget,
                f.nodes_pruned_extent,
                f.members_checked,
                f.candidates(),
            ]
        };
        let mut got = Vec::new();
        for (func, tau) in [
            (DistanceFunction::Dtw, 0.5),
            (DistanceFunction::Dtw, 2.0),
            (DistanceFunction::Frechet, 0.2),
            (DistanceFunction::Frechet, 0.5),
        ] {
            let mut scratch = ProbeScratch::new();
            let run = trie.probe_rows(&trie, &ids, tau, &func, &mut scratch, |_, _| {});
            let mut one = FilterStats::default();
            for &s in &ids {
                one.merge(&trie.probe_soa(trie.get(s).soa(), tau, &func, &mut scratch, |_| {}));
            }
            got.push((func.name(), tau, nodes(run), nodes(one)));
        }
        // No member the extents take away would have reached a pivot level:
        // the pivot levels' column of the test above is what it was before
        // nodes carried extents, while its endpoint and bound columns fell.
        let want = vec![
            (
                "dtw",
                0.5,
                [84_896, 77_551, 999, 8_235, 2_021],
                [207_488, 189_865, 6_270, 18_924, 2_041],
            ),
            (
                "dtw",
                2.0,
                [173_248, 126_308, 17_348, 55_762, 5_384],
                [512_768, 348_791, 97_545, 118_023, 8_637],
            ),
            (
                "frechet",
                0.2,
                [64_544, 60_791, 239, 4_313, 2_007],
                [156_512, 148_985, 1_448, 9_782, 2_013],
            ),
            (
                "frechet",
                0.5,
                [85_952, 76_128, 1_056, 13_912, 3_190],
                [210_112, 187_700, 5_333, 30_141, 4_321],
            ),
        ];
        assert_eq!(
            got, want,
            "[nodes visited, level prunes, extent prunes, member tests, admitted]: a leaf of rows, \
             one row"
        );
    }

    /// Each node's extent is the union of the MBRs of the members in its
    /// subtree, recomputed here from the built arena and the store.
    fn assert_extents_are_subtree_unions(index: &TrieIndex) {
        fn below(index: &TrieIndex, id: u32) -> Mbr {
            let rec = index.nodes.rec(id);
            let own = rec.members().map(|m| *index.get(m).mbr());
            let kids = rec.children().map(|c| below(index, c));
            own.chain(kids).fold(Mbr::EMPTY, |e, m| e.union(&m))
        }
        for id in 0..index.nodes.len() as u32 {
            assert_eq!(*index.nodes.extent(id), below(index, id), "node {id}");
        }
    }

    #[test]
    fn every_extent_is_the_union_of_its_subtrees_member_mbrs() {
        for (rows, config) in layout_shapes() {
            assert_extents_are_subtree_unions(&TrieIndex::build(rows, config));
        }
    }

    #[test]
    fn nearest_endpoints_matches_a_scan() {
        let trie = TrieIndex::build(seeded_rows(600, 0x5eed_0e0e), TrieConfig::default());
        let score = |c: u32, f: &Point, l: &Point| {
            let e = trie.get(c);
            f.dist(&e.first()) + l.dist(&e.last())
        };
        let mut ends: Vec<(Point, Point)> = (0..trie.len() as u32)
            .step_by(97)
            .map(|c| (trie.get(c).first(), trie.get(c).last()))
            .collect();
        ends.push((Point::new(-3.0, 40.0), Point::new(0.25, 0.5)));
        for (f, l) in &ends {
            for m in [0, 1, 7, 60, 1000] {
                for limit in [f64::INFINITY, 0.5] {
                    let keep = |c: u32| c % 3 != 1;
                    let mut scan: Vec<(f64, u32)> = (0..trie.len() as u32)
                        .filter(|&c| keep(c))
                        .map(|c| (score(c, f, l), c))
                        .filter(|&(s, _)| s <= limit)
                        .collect();
                    scan.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    scan.truncate(m);
                    let got = trie.nearest_endpoints(f, l, m, limit, keep);
                    assert_eq!(got, scan, "m={m} limit={limit}");
                }
            }
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
                let (soa, mut count) = (SoaPoints::from_points(q.points()), 0);
                let dtw = DistanceFunction::Dtw;
                index.probe_soa(soa.view(), tau, &dtw, &mut scratch, |_| count += 1);
                assert_eq!(count, fresh.0.len());
            }
        }
    }
}
