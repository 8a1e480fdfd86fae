//! The verification pipeline (§5.3.3).
//!
//! Candidates that survive the trie filter are verified in three stages of
//! increasing cost:
//!
//! 1. **MBR coverage** (Lemma 5.4) — O(1) rectangle containment on
//!    τ-extended MBRs. Sound for DTW and Fréchet, whose alignments may not
//!    skip points; the edit family can delete outliers, so the stage is
//!    bypassed for EDR/LCSS/ERP.
//! 2. **Cell bounds** (Lemma 5.6) — the compressed cell lists give an
//!    additive lower bound for DTW and a bottleneck bound for Fréchet.
//! 3. **Thresholded distance** — the band-pruned SoA kernels of
//!    `dita_distance::kernel` on the hot path ([`verify_pair_soa`]), or the
//!    double-direction DTW of §5.3.3(3) via the AoS [`verify_pair`].
//!
//! [`verify_candidates`] runs a worker task's whole candidate list through
//! the pipeline, optionally on a rayon pool scoped to the worker, with
//! deterministic output order and honest CPU-time accounting.

use dita_cluster::{charge_compute, thread_cpu_time, TaskError};
use dita_distance::kernel::Scratch;
use dita_distance::{bounds, DistanceFunction};
use dita_index::{EntryRef, IndexedTrajectory, TrieIndex};
use dita_trajectory::{
    cell_bottleneck_bound, cell_lower_bound, Cell, CellList, Mbr, Point, SoaPoints, SoaView,
    Trajectory, TrajectoryId,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Pre-computed query artifacts shared across all verifications of one
/// query: its MBR, cell compression and SoA coordinate layout.
#[derive(Debug, Clone)]
pub struct QueryContext {
    points: Vec<Point>,
    mbr: Mbr,
    cells: CellList,
    soa: SoaPoints,
}

impl QueryContext {
    /// Builds the context; `cell_side` should match the index's cell side so
    /// bounds are comparable (any positive value is sound).
    pub fn new(points: &[Point], cell_side: f64) -> Self {
        assert!(
            !points.is_empty(),
            "queries must contain at least one point"
        );
        let traj = Trajectory::new(u64::MAX, points.to_vec());
        QueryContext {
            mbr: traj.mbr(),
            cells: CellList::compress(&traj, cell_side),
            soa: SoaPoints::from_points(points),
            points: points.to_vec(),
        }
    }

    /// Builds the context from already-computed artifacts — the join uses
    /// this to reuse the shipped trajectory's clustered-index entries
    /// instead of recompressing.
    pub fn from_parts(points: Vec<Point>, mbr: Mbr, cells: CellList) -> Self {
        assert!(
            !points.is_empty(),
            "queries must contain at least one point"
        );
        let soa = SoaPoints::from_points(&points);
        QueryContext {
            points,
            mbr,
            cells,
            soa,
        }
    }

    /// The query points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The query MBR.
    pub fn mbr(&self) -> &Mbr {
        &self.mbr
    }

    /// The query's cell compression.
    pub fn cells(&self) -> &CellList {
        &self.cells
    }

    /// The query points in structure-of-arrays layout.
    pub fn soa(&self) -> &SoaPoints {
        &self.soa
    }

    /// The query's artifacts as the view [`verify_views`] takes. A query
    /// has no trajectory id; the filter stages never read one.
    fn view(&self) -> CandidateView<'_> {
        CandidateView {
            id: TrajectoryId::MAX,
            mbr: &self.mbr,
            cells: self.cells.cells(),
            soa: self.soa.view(),
        }
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
    /// Whole-trajectory MBR (Lemma 5.4 coverage filtering).
    pub mbr: &'a Mbr,
    /// Cell compression (Lemma 5.6 bounds), side matching the index.
    pub cells: &'a [Cell],
    /// The point sequence in structure-of-arrays layout.
    pub soa: SoaView<'a>,
}

impl<'a> From<&'a IndexedTrajectory> for CandidateView<'a> {
    fn from(it: &'a IndexedTrajectory) -> Self {
        CandidateView {
            id: it.traj.id,
            mbr: &it.mbr,
            cells: it.cells.cells(),
            soa: it.soa.view(),
        }
    }
}

impl<'a> From<EntryRef<'a>> for CandidateView<'a> {
    fn from(e: EntryRef<'a>) -> Self {
        CandidateView {
            id: e.id(),
            mbr: e.mbr(),
            cells: e.cells(),
            soa: e.soa(),
        }
    }
}

/// The cheap filter stages shared by both verification paths: returns true
/// when the candidate is provably outside the threshold. The query side is
/// a view too, so a stored trajectory can play it in place (the join).
fn prefiltered(
    cand_soa: SoaView<'_>,
    cand_mbr: &Mbr,
    cand_cells: &[Cell],
    q: &CandidateView<'_>,
    tau: f64,
    func: &DistanceFunction,
) -> bool {
    match func {
        DistanceFunction::Dtw => {
            bounds::mbr_coverage_prune(cand_mbr, q.mbr, tau)
                || cell_lower_bound(cand_cells, q.cells) > tau
                || cell_lower_bound(q.cells, cand_cells) > tau
        }
        DistanceFunction::Frechet => {
            bounds::mbr_coverage_prune(cand_mbr, q.mbr, tau)
                || cell_bottleneck_bound(cand_cells, q.cells) > tau
                || cell_bottleneck_bound(q.cells, cand_cells) > tau
        }
        DistanceFunction::Edr { .. } => bounds::length_bound_edr(cand_soa.len(), q.soa.len(), tau),
        DistanceFunction::Erp { gap } => {
            // Magnitude bound (Chen & Ng): ERP ≥ |Σ dist(t_i, g) − Σ dist(q_j, g)|.
            let g = Point::new(gap.0, gap.1);
            let to_gap =
                |s: SoaView<'_>| -> f64 { (0..s.len()).map(|i| s.point(i).dist(&g)).sum() };
            (to_gap(cand_soa) - to_gap(q.soa)).abs() > tau
        }
        _ => false,
    }
}

/// Verifies one candidate: returns `Some(distance)` iff
/// `func(candidate, query) ≤ tau`. `cand_mbr`/`cand_cells` are the
/// candidate's precomputed artifacts from the clustered index.
pub fn verify_pair(
    cand_points: &[Point],
    cand_mbr: &Mbr,
    cand_cells: &CellList,
    q: &QueryContext,
    tau: f64,
    func: &DistanceFunction,
) -> Option<f64> {
    let soa = SoaPoints::from_points(cand_points);
    if prefiltered(
        soa.view(),
        cand_mbr,
        cand_cells.cells(),
        &q.view(),
        tau,
        func,
    ) {
        return None;
    }
    func.verify(cand_points, &q.points, tau)
}

/// Verifies one candidate against the query using the SoA band-pruned
/// kernels — the allocation-free hot path. Same filter stages as
/// [`verify_pair`]; `scratch` is reused across candidates.
pub fn verify_pair_soa(
    cand: CandidateView<'_>,
    q: &QueryContext,
    tau: f64,
    func: &DistanceFunction,
    scratch: &mut Scratch,
) -> Option<f64> {
    verify_views(cand, q.view(), tau, func, scratch)
}

/// [`verify_pair_soa`] with the query side borrowed as well: the join's
/// shipped rows are stored trajectories, whose MBR, cells and coordinates
/// are read where they lie instead of being copied into a
/// [`QueryContext`] per row.
pub(crate) fn verify_views(
    cand: CandidateView<'_>,
    q: CandidateView<'_>,
    tau: f64,
    func: &DistanceFunction,
    scratch: &mut Scratch,
) -> Option<f64> {
    if prefiltered(cand.soa, cand.mbr, cand.cells, &q, tau, func) {
        return None;
    }
    func.verify_soa(cand.soa, q.soa, tau, scratch)
}

/// Verifies a worker task's candidate list, returning `(id, distance)` hits
/// in candidate order — the fallible form worker tasks run under
/// [`dita_cluster::Cluster::execute_try`].
///
/// Candidate ids are validated up front: an out-of-range id (a corrupted
/// candidate list) returns a [`TaskError`] that the executor's retry path
/// treats like a task panic, instead of unwinding the worker thread. The
/// hot loops below are panic-free by construction after that check.
///
/// With `threads ≤ 1` the list is verified serially on the calling thread.
/// With `threads > 1` it is split across a rayon pool scoped to this call
/// (per-thread scratch buffers, chunked statically), and the pool threads'
/// CPU time is reported to the cluster executor via
/// [`dita_cluster::charge_compute`] so the simulated cost model sees the
/// work, not the host parallelism. The output is identical for every thread
/// count: results land in pre-assigned slots, so ordering never depends on
/// scheduling.
pub fn try_verify_candidates(
    trie: &TrieIndex,
    cands: &[u32],
    q: &QueryContext,
    tau: f64,
    func: &DistanceFunction,
    threads: usize,
) -> Result<Vec<(TrajectoryId, f64)>, TaskError> {
    if let Some(&bad) = cands.iter().find(|&&c| trie.try_get(c).is_none()) {
        return Err(TaskError::new(format!(
            "candidate id {bad} out of range for a trie of {} entries",
            trie.len()
        )));
    }
    let serial = |out: &mut Vec<(TrajectoryId, f64)>| {
        let mut scratch = Scratch::new();
        for &c in cands {
            let e = trie.get(c);
            if let Some(d) = verify_pair_soa(e.into(), q, tau, func, &mut scratch) {
                out.push((e.id(), d));
            }
        }
    };
    if threads <= 1 || cands.len() < 2 {
        let mut out = Vec::new();
        serial(&mut out);
        return Ok(out);
    }
    let pool = match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(p) => p,
        Err(_) => {
            // Pool creation can fail under resource limits; verification
            // must still complete.
            let mut out = Vec::new();
            serial(&mut out);
            return Ok(out);
        }
    };

    let mut slots: Vec<Option<(TrajectoryId, f64)>> = vec![None; cands.len()];
    let cpu_ns = AtomicU64::new(0);
    // ~4 chunks per thread: large enough to amortize spawn overhead, small
    // enough to smooth out uneven early-abandon costs.
    let chunk = cands.len().div_ceil(threads * 4).max(1);
    pool.scope(|s| {
        for (part, out) in cands.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            let cpu_ns = &cpu_ns;
            s.spawn(move |_| {
                let t0 = thread_cpu_time();
                let mut scratch = Scratch::new();
                for (&c, slot) in part.iter().zip(out.iter_mut()) {
                    let e = trie.get(c);
                    *slot =
                        verify_pair_soa(e.into(), q, tau, func, &mut scratch).map(|d| (e.id(), d));
                }
                let dt = thread_cpu_time().saturating_sub(t0);
                cpu_ns.fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
            });
        }
    });
    // Back on the worker thread: fold the pool's CPU time into this task's
    // compute cost.
    charge_compute(Duration::from_nanos(cpu_ns.load(Ordering::Relaxed)));
    Ok(slots.into_iter().flatten().collect())
}

/// Infallible [`try_verify_candidates`] for driver-side overlays, benches
/// and tests, where the candidate list comes straight from a trie probe
/// and an out-of-range id is an immediate programming error.
pub fn verify_candidates(
    trie: &TrieIndex,
    cands: &[u32],
    q: &QueryContext,
    tau: f64,
    func: &DistanceFunction,
    threads: usize,
) -> Vec<(TrajectoryId, f64)> {
    try_verify_candidates(trie, cands, q, tau, func, threads)
        // lint: allow(worker-panic, reason = "driver-side wrapper; worker tasks call try_verify_candidates under execute_try")
        .expect("candidate ids must be in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dita_trajectory::trajectory::figure1_trajectories;

    fn ctx(points: &[Point]) -> QueryContext {
        QueryContext::new(points, 2.0)
    }

    fn artifacts(t: &Trajectory) -> (Mbr, CellList) {
        (t.mbr(), CellList::compress(t, 2.0))
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
        for f in fns {
            for a in &ts {
                let (mbr, cells) = artifacts(a);
                for b in &ts {
                    let q = ctx(b.points());
                    let d = f.distance(a.points(), b.points());
                    for tau in [0.5, 1.5, 3.0, 6.0] {
                        match verify_pair(a.points(), &mbr, &cells, &q, tau, &f) {
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
        let (mbr, cells) = artifacts(&ts[4]);
        let qc = ctx(q.points());
        assert!(verify_pair(
            ts[4].points(),
            &mbr,
            &cells,
            &qc,
            3.0,
            &DistanceFunction::Dtw
        )
        .is_none());
    }

    #[test]
    fn example_5_7_pruned_by_cell_bound() {
        // Example 5.7: pruned by the cell lower bound (Cell(Q, T1) = 4 > 3)
        // even though the pair's MBRs are compatible.
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
        let (mbr, cells) = artifacts(&ts[0]);
        let qc = ctx(q.points());
        assert!(verify_pair(
            ts[0].points(),
            &mbr,
            &cells,
            &qc,
            3.0,
            &DistanceFunction::Dtw
        )
        .is_none());
    }

    #[test]
    fn self_verification_always_passes() {
        let ts = figure1_trajectories();
        for t in &ts {
            let (mbr, cells) = artifacts(t);
            let q = ctx(t.points());
            let v = verify_pair(t.points(), &mbr, &cells, &q, 0.0, &DistanceFunction::Dtw);
            assert_eq!(v, Some(0.0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_query_context_rejected() {
        let _ = QueryContext::new(&[], 1.0);
    }

    #[test]
    fn soa_path_agrees_with_aos_path() {
        use dita_index::PivotStrategy;
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
                let it = IndexedTrajectory::new(a.clone(), 2, PivotStrategy::NeighborDistance, 2.0);
                for b in &ts {
                    let q = ctx(b.points());
                    for tau in [0.5, 1.5, 3.0, 6.0] {
                        let aos = verify_pair(a.points(), &it.mbr, &it.cells, &q, tau, &f);
                        let soa = verify_pair_soa((&it).into(), &q, tau, &f, &mut scratch);
                        match (aos, soa) {
                            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "{f}"),
                            (None, None) => {}
                            other => panic!("{f} tau={tau}: aos/soa disagree: {other:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn verify_candidates_deterministic_across_thread_counts() {
        use dita_index::{TrieConfig, TrieIndex};
        let ts = figure1_trajectories();
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
        let cands: Vec<u32> = (0..ts.len() as u32).collect();
        let baseline = verify_candidates(&trie, &cands, &q, 3.0, &DistanceFunction::Dtw, 1);
        assert!(!baseline.is_empty());
        for threads in [2usize, 4, 8] {
            for _ in 0..3 {
                let got =
                    verify_candidates(&trie, &cands, &q, 3.0, &DistanceFunction::Dtw, threads);
                assert_eq!(got, baseline, "threads={threads}");
            }
        }
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
        // surface as a retryable TaskError, in both the serial and the
        // rayon-pool paths, without unwinding the worker thread.
        for threads in [1usize, 4] {
            let cands: Vec<u32> = (0..=n).collect();
            let err =
                try_verify_candidates(&trie, &cands, &q, 3.0, &DistanceFunction::Dtw, threads)
                    .expect_err("out-of-range candidate must be rejected");
            assert!(err.to_string().contains("out of range"), "{err}");
        }
        // In-range ids still verify identically through the fallible path.
        let cands: Vec<u32> = (0..n).collect();
        let ok = try_verify_candidates(&trie, &cands, &q, 3.0, &DistanceFunction::Dtw, 1)
            .expect("in-range candidates verify");
        assert_eq!(
            ok,
            verify_candidates(&trie, &cands, &q, 3.0, &DistanceFunction::Dtw, 1)
        );
    }
}
