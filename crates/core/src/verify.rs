//! The verification pipeline (§5.3.3).
//!
//! Candidates that survive the trie filter are verified in stages of
//! increasing cost, none of which reads anything but the two MBRs and the
//! two coordinate arrays:
//!
//! 1. **MBR coverage** (Lemma 5.4) — O(1) rectangle containment on
//!    τ-extended MBRs. Sound for DTW and Fréchet, whose alignments may not
//!    skip points; the edit family can delete outliers, so EDR and ERP run
//!    their own linear bound (length, magnitude) in stage 2's place and
//!    LCSS goes straight to the kernel.
//! 2. **Point-to-MBR bound** (the same lemma, point by point:
//!    `dita_distance::bounds::point_mbr_sum`) — O(m): the candidate's points
//!    against the query's MBR. The other direction, the query's points
//!    against the candidate's MBR, reads nothing of the candidate but its
//!    MBR, so it is not here: the trie's member cascade runs it, ahead of
//!    its pivot levels, and every candidate a trie emits has passed it.
//!    Delta tails, which no trie filters, are left to the kernel for it.
//! 3. **Thresholded distance** — the band-pruned SoA kernel of
//!    `dita_distance::kernel`, the one threshold DP of each function.
//!
//! The paper's O(cells²) cell bound (Lemma 5.6) is not a stage: the bound
//! of stage 2 prunes more for less (EXPERIMENTS.md "Where verification's
//! time goes"). Nor is §5.3.3(3)'s double-direction DTW: stage 2 already
//! rejects most pairs that diverge at either end, and a DP filled from both
//! ends sums each path in two halves, so its distances would differ from
//! the kernel's in the last bits (DESIGN.md §3).
//!
//! [`verify_candidates`] runs a worker task's whole candidate list through
//! the pipeline on the calling thread, hits in candidate order.

use dita_cluster::TaskError;
use dita_distance::kernel::Scratch;
use dita_distance::{bounds, DistanceFunction};
use dita_index::{EntryRef, IndexedTrajectory, TrieIndex};
use dita_obs::names;
use dita_trajectory::{Mbr, Point, SoaPoints, SoaView, TrajectoryId};

/// Pre-computed query artifacts shared across all verifications of one
/// query: its MBR and SoA coordinate layout.
#[derive(Debug, Clone)]
pub struct QueryContext {
    points: Vec<Point>,
    mbr: Mbr,
    soa: SoaPoints,
}

impl QueryContext {
    /// Builds the context.
    /// `_cell_side` is unread; kept only because `benchmark/` passes it
    /// (ROADMAP, "Unfreeze `benchmark/` once and delete everything that waits on it").
    pub fn new(points: &[Point], _cell_side: f64) -> Self {
        Self::from_parts(points.to_vec(), Mbr::from_points(points))
    }

    /// Builds the context from an already-computed MBR.
    pub fn from_parts(points: Vec<Point>, mbr: Mbr) -> Self {
        assert!(
            !points.is_empty(),
            "queries must contain at least one point"
        );
        let soa = SoaPoints::from_points(&points);
        QueryContext { points, mbr, soa }
    }

    /// The query points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The query MBR.
    pub fn mbr(&self) -> &Mbr {
        &self.mbr
    }

    /// The query points in structure-of-arrays layout.
    pub fn soa(&self) -> &SoaPoints {
        &self.soa
    }

    /// The query prepared for a candidate list under `func`.
    pub(crate) fn side(&self, func: &DistanceFunction) -> QuerySide<'_> {
        QuerySide::new(&self.mbr, self.soa.view(), func)
    }
}

/// The query side of a verification, prepared once per candidate list
/// (search, delta overlay) or per shipped row (join): what the stages read
/// of the query, plus the one term of a bound that depends on the query
/// alone. A stored trajectory can play the query in place (the join).
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuerySide<'a> {
    mbr: &'a Mbr,
    soa: SoaView<'a>,
    /// `Σ dist(qⱼ, g)`, the query's half of ERP's magnitude bound; zero
    /// and unread under every other function.
    gap_sum: f64,
}

impl<'a> QuerySide<'a> {
    pub(crate) fn new(mbr: &'a Mbr, soa: SoaView<'a>, func: &DistanceFunction) -> Self {
        let gap_sum = match func {
            DistanceFunction::Erp { gap } => bounds::dist_sum_to(soa, &Point::new(gap.0, gap.1)),
            _ => 0.0,
        };
        QuerySide { mbr, soa, gap_sum }
    }
}

/// Borrowed candidate artifacts for verification — everything the filter
/// stages and the SoA kernels need, independent of whether the candidate
/// lives in a flat [`dita_index::TrajStore`] arena (borrow via
/// [`EntryRef`]) or an owned [`IndexedTrajectory`] (delta tails).
#[derive(Debug, Clone, Copy)]
pub struct CandidateView<'a> {
    /// The candidate's trajectory id.
    pub id: TrajectoryId,
    /// Whole-trajectory MBR (Lemma 5.4, both forms).
    pub mbr: &'a Mbr,
    /// The point sequence in structure-of-arrays layout.
    pub soa: SoaView<'a>,
}

impl<'a> From<&'a IndexedTrajectory> for CandidateView<'a> {
    fn from(it: &'a IndexedTrajectory) -> Self {
        CandidateView {
            id: it.traj.id,
            mbr: &it.mbr,
            soa: it.soa.view(),
        }
    }
}

impl<'a> From<EntryRef<'a>> for CandidateView<'a> {
    fn from(e: EntryRef<'a>) -> Self {
        CandidateView {
            id: e.id(),
            mbr: e.mbr(),
            soa: e.soa(),
        }
    }
}

/// What became of the candidates a verification was handed, stage by stage
/// in pipeline order. Counts only; every candidate is in exactly one of the
/// three rejected counts or accepted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Candidates handed to verification.
    pub candidates: usize,
    /// Rejected by MBR coverage (DTW and Fréchet only).
    pub pruned_coverage: usize,
    /// Rejected by the function's linear bound: the candidate's points
    /// against the query's MBR for DTW and Fréchet, length for EDR,
    /// magnitude for ERP.
    pub pruned_bound: usize,
    /// Rejected by the thresholded kernel.
    pub rejected_kernel: usize,
}

impl VerifyStats {
    /// Candidates the kernel accepted: the answers.
    pub fn accepted(&self) -> usize {
        self.candidates - self.pruned_coverage - self.pruned_bound - self.rejected_kernel
    }

    /// Merges another list's counters into this one.
    pub fn merge(&mut self, other: &VerifyStats) {
        self.candidates += other.candidates;
        self.pruned_coverage += other.pruned_coverage;
        self.pruned_bound += other.pruned_bound;
        self.rejected_kernel += other.rejected_kernel;
    }

    /// The counters as the `dita-obs` funnel [`names::FUNNEL_VERIFY`]; the
    /// last stage's survivors equal [`VerifyStats::accepted`].
    pub fn funnel(&self) -> dita_obs::Funnel {
        let mut f = dita_obs::Funnel::new(names::FUNNEL_VERIFY);
        let mut entered = self.candidates;
        for (stage, pruned) in [
            (names::STAGE_VERIFY_COVERAGE, self.pruned_coverage),
            (names::STAGE_VERIFY_BOUND, self.pruned_bound),
            (names::STAGE_VERIFY_KERNEL, self.rejected_kernel),
        ] {
            f.push_stage(stage, entered as u64, pruned as u64);
            entered -= pruned;
        }
        f
    }
}

/// The cheap stages in front of the kernel, cheapest first: counts and
/// returns true when one proves the candidate outside the threshold.
fn prefiltered(
    cand_soa: SoaView<'_>,
    cand_mbr: &Mbr,
    q: &QuerySide<'_>,
    tau: f64,
    func: &DistanceFunction,
    stats: &mut VerifyStats,
) -> bool {
    // Coverage is sound only where an alignment may not skip points.
    if matches!(func, DistanceFunction::Dtw | DistanceFunction::Frechet)
        && bounds::mbr_coverage_prune(cand_mbr, q.mbr, tau)
    {
        stats.pruned_coverage += 1;
        return true;
    }
    let bound = match func {
        DistanceFunction::Dtw => bounds::point_mbr_sum(cand_soa, q.mbr, tau) > tau,
        DistanceFunction::Frechet => bounds::point_mbr_max(cand_soa, q.mbr, tau) > tau,
        DistanceFunction::Edr { .. } => bounds::length_bound_edr(cand_soa.len(), q.soa.len(), tau),
        DistanceFunction::Erp { gap } => {
            let cand_sum = bounds::dist_sum_to(cand_soa, &Point::new(gap.0, gap.1));
            bounds::magnitude_bound_erp(cand_sum, cand_soa.len(), q.gap_sum, q.soa.len(), tau)
        }
        DistanceFunction::Lcss { .. } => false,
    };
    stats.pruned_bound += bound as usize;
    bound
}

/// Verifies one candidate: returns `Some(distance)` iff
/// `func(candidate, query) ≤ tau`, through every stage of the pipeline;
/// `scratch` is reused across candidates. A caller with a whole list to
/// verify prepares the query once instead ([`verify_candidates`]).
pub fn verify_pair_soa(
    cand: CandidateView<'_>,
    q: &QueryContext,
    tau: f64,
    func: &DistanceFunction,
    scratch: &mut Scratch,
) -> Option<f64> {
    let mut stats = VerifyStats::default();
    verify_views(cand, &q.side(func), tau, func, scratch, &mut stats)
}

/// One candidate against a prepared query side, counted into `stats` — the
/// allocation-free hot path of search, overlay and join.
pub(crate) fn verify_views(
    cand: CandidateView<'_>,
    q: &QuerySide<'_>,
    tau: f64,
    func: &DistanceFunction,
    scratch: &mut Scratch,
    stats: &mut VerifyStats,
) -> Option<f64> {
    stats.candidates += 1;
    if prefiltered(cand.soa, cand.mbr, q, tau, func, stats) {
        return None;
    }
    let d = func.verify_soa(cand.soa, q.soa, tau, scratch);
    stats.rejected_kernel += d.is_none() as usize;
    d
}

/// Verifies a worker task's candidate list, returning `(id, distance)` hits
/// in candidate order plus the list's stage counts — the fallible form
/// worker tasks run under [`dita_cluster::Cluster::execute_try`].
///
/// Candidate ids are validated up front: an out-of-range id (a corrupted
/// candidate list) returns a [`TaskError`], which fails the task and
/// aborts its job like a task panic, without unwinding inside the task.
/// The hot loops below are panic-free by construction after that check.
///
/// The list is verified serially on the calling thread — the worker task's
/// own, so its CPU time is the task's compute cost — with the caller's
/// kernel `scratch`, which a worker keeps across its lists.
pub fn try_verify_candidates(
    trie: &TrieIndex,
    cands: &[u32],
    q: &QueryContext,
    tau: f64,
    func: &DistanceFunction,
    scratch: &mut Scratch,
) -> Result<(Vec<(TrajectoryId, f64)>, VerifyStats), TaskError> {
    if let Some(&bad) = cands.iter().find(|&&c| trie.try_get(c).is_none()) {
        return Err(TaskError::new(format!(
            "candidate id {bad} out of range for a trie of {} entries",
            trie.len()
        )));
    }
    let side = q.side(func);
    let mut out = Vec::new();
    let mut stats = VerifyStats::default();
    for &c in cands {
        let e = trie.get(c);
        if let Some(d) = verify_views(e.into(), &side, tau, func, scratch, &mut stats) {
            out.push((e.id(), d));
        }
    }
    Ok((out, stats))
}

/// [`try_verify_candidates`]' hits alone, infallibly, for benches and
/// tests, where the candidate list comes straight from a probe of the same
/// trie and an out-of-range id is an immediate programming error.
///
/// The sixth parameter is unread: it was a verification thread count, every
/// caller passed 1, and it stays only until `benchmark/src/layers.rs`, which
/// this signature must keep compiling, stops passing it (ROADMAP, "Unfreeze
/// `benchmark/` once and delete everything that waits on it").
pub fn verify_candidates(
    trie: &TrieIndex,
    cands: &[u32],
    q: &QueryContext,
    tau: f64,
    func: &DistanceFunction,
    _unread: usize,
) -> Vec<(TrajectoryId, f64)> {
    try_verify_candidates(trie, cands, q, tau, func, &mut Scratch::new())
        // lint: allow(worker-panic, reason = "driver-side wrapper; worker tasks call try_verify_candidates under execute_try")
        .expect("candidate ids must be in range")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dita_trajectory::trajectory::figure1_trajectories;
    use dita_trajectory::Trajectory;

    fn ctx(points: &[Point]) -> QueryContext {
        QueryContext::new(points, 2.0)
    }

    fn indexed(t: &Trajectory) -> IndexedTrajectory {
        IndexedTrajectory::new(t.clone())
    }

    #[test]
    fn verification_agrees_with_ground_truth_for_all_functions() {
        let ts = figure1_trajectories();
        let fns = [
            DistanceFunction::Dtw,
            DistanceFunction::Frechet,
            DistanceFunction::Edr { eps: 1.0 },
            DistanceFunction::Lcss { eps: 1.0, delta: 2 },
            DistanceFunction::Erp { gap: (0.0, 0.0) },
        ];
        let mut scratch = Scratch::new();
        for f in fns {
            for a in &ts {
                let it = indexed(a);
                for b in &ts {
                    let q = ctx(b.points());
                    let d = f.distance(a.points(), b.points());
                    for tau in [0.5, 1.5, 3.0, 6.0] {
                        match verify_pair_soa((&it).into(), &q, tau, &f, &mut scratch) {
                            Some(v) => {
                                assert!(d <= tau + 1e-9, "{f}: accepted d={d} tau={tau}");
                                assert!((v - d).abs() < 1e-9);
                            }
                            None => assert!(d > tau - 1e-9, "{f}: rejected d={d} tau={tau}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn example_5_5_pruned_by_mbr_coverage() {
        // Example 5.5: the pair survives OPAMD but fails MBR coverage.
        let ts = figure1_trajectories();
        let q = Trajectory::from_coords(
            10,
            &[
                (0.0, 4.0),
                (0.0, 5.0),
                (3.0, 7.0),
                (3.0, 9.0),
                (3.0, 11.0),
                (3.0, 3.0),
                (7.0, 5.0),
            ],
        );
        let qc = ctx(q.points());
        let dtw = DistanceFunction::Dtw;
        let mut stats = VerifyStats::default();
        let it = indexed(&ts[4]);
        let got = verify_views(
            (&it).into(),
            &qc.side(&dtw),
            3.0,
            &dtw,
            &mut Scratch::new(),
            &mut stats,
        );
        assert_eq!(got, None);
        assert_eq!((stats.candidates, stats.pruned_coverage), (1, 1));
    }

    #[test]
    fn example_5_7_is_left_to_the_kernel() {
        // Example 5.7's pair passes coverage, and the paper prunes it with
        // the cell bound (Cell(Q, T1) = 4 > 3). Only one point of Q lies
        // outside T1's MBR, by 1, so the trie's query-to-MBR bound lets it
        // through; T1's points against Q's MBR do too, and the kernel
        // rejects it.
        let ts = figure1_trajectories();
        let q = Trajectory::from_coords(
            10,
            &[
                (1.0, 1.0),
                (1.0, 5.0),
                (1.0, 4.0),
                (2.0, 4.0),
                (2.0, 5.0),
                (4.0, 4.0),
                (5.0, 6.0),
                (5.0, 5.0),
            ],
        );
        let qc = ctx(q.points());
        let dtw = DistanceFunction::Dtw;
        assert!(!bounds::mbr_coverage_prune(&ts[0].mbr(), qc.mbr(), 3.0));
        let it = indexed(&ts[0]);
        let mut stats = VerifyStats::default();
        let got = verify_views(
            (&it).into(),
            &qc.side(&dtw),
            3.0,
            &dtw,
            &mut Scratch::new(),
            &mut stats,
        );
        assert_eq!(got, None);
        assert_eq!(
            (
                stats.pruned_coverage,
                stats.pruned_bound,
                stats.rejected_kernel
            ),
            (0, 0, 1)
        );
    }

    #[test]
    fn self_verification_always_passes() {
        let ts = figure1_trajectories();
        let mut scratch = Scratch::new();
        for t in &ts {
            let q = ctx(t.points());
            let v = verify_pair_soa(
                (&indexed(t)).into(),
                &q,
                0.0,
                &DistanceFunction::Dtw,
                &mut scratch,
            );
            assert_eq!(v, Some(0.0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_query_context_rejected() {
        let _ = QueryContext::new(&[], 1.0);
    }

    #[test]
    fn out_of_range_candidate_is_an_error_not_a_panic() {
        use dita_index::{TrieConfig, TrieIndex};
        let ts = figure1_trajectories();
        let n = ts.len() as u32;
        let trie = TrieIndex::build(
            ts.clone(),
            TrieConfig {
                k: 2,
                nl: 2,
                leaf_capacity: 0,
                cell_side: 2.0,
                ..TrieConfig::default()
            },
        );
        let q = ctx(ts[0].points());
        // A corrupted candidate list (id past the end of the trie) must
        // surface as a TaskError, without unwinding the worker thread.
        let cands: Vec<u32> = (0..=n).collect();
        let err = try_verify_candidates(
            &trie,
            &cands,
            &q,
            3.0,
            &DistanceFunction::Dtw,
            &mut Scratch::new(),
        )
        .expect_err("out-of-range candidate must be rejected");
        assert!(err.to_string().contains("out of range"), "{err}");
        // In-range ids still verify identically through the fallible path.
        let cands: Vec<u32> = (0..n).collect();
        let (ok, stats) = try_verify_candidates(
            &trie,
            &cands,
            &q,
            3.0,
            &DistanceFunction::Dtw,
            &mut Scratch::new(),
        )
        .expect("in-range candidates verify");
        assert_eq!(
            ok,
            verify_candidates(&trie, &cands, &q, 3.0, &DistanceFunction::Dtw, 1)
        );
        assert_eq!(
            (stats.candidates, stats.accepted()),
            (cands.len(), ok.len())
        );
    }
}
