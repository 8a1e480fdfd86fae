//! Filter soundness: verification's rows, the endpoint-pair rule's and the
//! local join's run-level rule's (ROADMAP item 3).
//!
//! Every "≡" test in this repository compares two paths that share their
//! filters. The only side with no filter is the kernel, so this harness
//! holds each cheap stage of `dita_core::verify` against it: for all five
//! distance functions, no stage taken alone rejects a pair the thresholded
//! kernel accepts, and the whole pipeline returns what the kernel alone
//! returns, distance bits included. The endpoint-pair budget rule
//! (`IndexMode::endpoints_admit`, which the global index, the join's
//! partition-pair screen and its shipped-row screen all call) is held
//! against the same kernel in both shapes it is used in, and so is the
//! rectangle test `TrieIndex::probe_rows` puts in front of every trie node
//! for a whole run of shipped rows, level kind by level kind.
//!
//! | stage | lemma | functions |
//! |---|---|---|
//! | MBR coverage | Lemma 5.4 | DTW, Fréchet |
//! | point-to-MBR, query points → candidate MBR | Lemma 5.4, point by point | DTW, Fréchet |
//! | point-to-MBR, candidate points → query MBR | the same, roles swapped | DTW, Fréchet |
//! | length | Appendix A, `EDR ≥ \|m − n\|` | EDR |
//! | magnitude | Chen & Ng, `ERP ≥ \|Σ dist(tᵢ, g) − Σ dist(qⱼ, g)\|` | ERP |
//! | endpoints, point vs MBR (`relevant_partitions`, `relevant_members`) | §5.2; Appendix A for Fréchet, EDR, LCSS | all five |
//! | endpoints, MBR vs MBR (`build_edges`' screen) | the same, §6.2 | all five |
//! | run rectangles vs node MBR, first / last / pivot levels (`probe_rows`) | Lemma 5.1 with `MinDist(MBR, MBR) ≤ MinDist(point, MBR)` | DTW, Fréchet |
//! | run rectangles vs node MBR, edit levels (`probe_rows`) | Appendix A's edit count, the same inequality | EDR, LCSS |
//!
//! The thresholds are the adversarial ones: 0, the kernel's own distance
//! and one ulp either side of it, and one value in between. Trajectories of
//! at most three points over a 4 × 4 grid are enumerated (the short side of
//! a pair up to the grid's eight symmetries, which fix ERP's gap point at
//! the centre); everything longer is seeded.

use dita_core::verify::CandidateView;
use dita_core::{try_verify_candidates, verify_pair_soa, QueryContext};
use dita_distance::kernel::Scratch;
use dita_distance::{bounds, DistanceFunction};
use dita_index::{PivotStrategy, ProbeScratch, TrieConfig, TrieIndex};
use dita_trajectory::{Mbr, Point, SoaPoints, SoaView, Trajectory};

/// ERP's gap point sits at the centre of the grid, where every symmetry of
/// the grid leaves it.
const FUNCS: [DistanceFunction; 5] = [
    DistanceFunction::Dtw,
    DistanceFunction::Frechet,
    DistanceFunction::Edr { eps: 1.0 },
    DistanceFunction::Lcss { eps: 1.0, delta: 1 },
    DistanceFunction::Erp { gap: (1.5, 1.5) },
];

/// What a partition keeps of its members (§4.2.1): the MBRs of their first
/// and of their last points, and the shortest member's length.
struct Side {
    first: Mbr,
    last: Mbr,
    min_len: usize,
}

/// One trajectory with what verification reads of it.
struct Row {
    ctx: QueryContext,
    mbr: Mbr,
    /// Three partitions that hold this row: alone (the tightest summary a
    /// partition can have of it), beside its own reversal (endpoint MBRs
    /// that are not points), and beside the single point it starts at
    /// (`min_len` 1 over a longer member — the summary that switches the
    /// rule to its one-cell / one-edit arm).
    partitions: [Side; 3],
}

impl Row {
    fn new(points: Vec<Point>) -> Self {
        let (first, last) = (points[0], points[points.len() - 1]);
        let (at_first, at_last) = (Mbr::from_point(first), Mbr::from_point(last));
        let both = Mbr::from_points(&[first, last]);
        let side = |first, last, min_len| Side {
            first,
            last,
            min_len,
        };
        Row {
            mbr: Mbr::from_points(&points),
            ctx: QueryContext::new(&points, 1.0),
            partitions: [
                side(at_first, at_last, points.len()),
                side(both, both, points.len()),
                side(at_first, both, 1),
            ],
        }
    }

    fn soa(&self) -> &SoaPoints {
        self.ctx.soa()
    }

    fn view(&self) -> CandidateView<'_> {
        CandidateView {
            id: 0,
            mbr: &self.mbr,
            soa: self.soa().view(),
        }
    }
}

/// The stages `func` runs before its kernel, each as "would prune
/// `(cand, query)` at `tau`", written as `verify.rs` writes them.
fn stages(func: &DistanceFunction, cand: &Row, query: &Row, tau: f64) -> Vec<(&'static str, bool)> {
    let (c, q) = (cand.soa().view(), query.soa().view());
    match func {
        DistanceFunction::Dtw | DistanceFunction::Frechet => {
            let point_mbr: fn(SoaView<'_>, &Mbr, f64) -> f64 = match func {
                DistanceFunction::Dtw => bounds::point_mbr_sum,
                _ => bounds::point_mbr_max,
            };
            vec![
                (
                    "coverage",
                    bounds::mbr_coverage_prune(&cand.mbr, &query.mbr, tau),
                ),
                (
                    "query points → candidate MBR",
                    point_mbr(q, &cand.mbr, tau) > tau,
                ),
                (
                    "candidate points → query MBR",
                    point_mbr(c, &query.mbr, tau) > tau,
                ),
            ]
        }
        DistanceFunction::Edr { .. } => {
            vec![("length", bounds::length_bound_edr(c.len(), q.len(), tau))]
        }
        DistanceFunction::Erp { gap } => {
            let g = Point::new(gap.0, gap.1);
            let (sc, sq) = (bounds::dist_sum_to(c, &g), bounds::dist_sum_to(q, &g));
            vec![(
                "magnitude",
                bounds::magnitude_bound_erp(sc, c.len(), sq, q.len(), tau),
            )]
        }
        DistanceFunction::Lcss { .. } => vec![],
    }
}

/// The endpoint-pair budget rule on a pair the kernel accepts at `tau`,
/// over every partition summary of both rows: it must admit each time.
///
/// * DTW (§5.2): a warping path starts at `(t₁, q₁)` and ends at
///   `(tₘ, qₙ)`, two cells unless both sides are a single point.
/// * Fréchet (Appendix A, Definition A.1): the same two cells under `max`.
/// * EDR (Appendix A, Definition A.2): an endpoint with no partner within ϵ
///   is edited; a single point's first and last are one edit.
/// * LCSS (Appendix A, Definition A.3) and ERP are not pruned by endpoints:
///   the rule must admit everything.
fn assert_endpoints_admit(func: &DistanceFunction, t: &Row, q: &Row, tau: f64) {
    let mode = func.index_mode();
    let pts = t.ctx.points();
    let (first, last) = (&pts[0], &pts[pts.len() - 1]);
    for (qi, qp) in q.partitions.iter().enumerate() {
        // Point vs MBR: `GlobalIndex::relevant_partitions` (a query against
        // a partition) and the join's `relevant_members` (a stored row
        // against the opposite partition).
        let df = qp.first.min_dist_point(first);
        let dl = qp.last.min_dist_point(last);
        assert!(
            mode.endpoints_admit(df, dl, pts.len(), qp.min_len, tau),
            "{func}: the endpoint rule rejects a point-vs-MBR pair the kernel accepts at \
             tau {tau} (partition {qi}, df {df}, dl {dl}): {pts:?} vs {:?}",
            q.ctx.points()
        );
        // MBR vs MBR: `build_edges`' partition-pair screen (§6.2).
        for (ti, tp) in t.partitions.iter().enumerate() {
            let df = tp.first.min_dist_mbr(&qp.first);
            let dl = tp.last.min_dist_mbr(&qp.last);
            assert!(
                mode.endpoints_admit(df, dl, tp.min_len, qp.min_len, tau),
                "{func}: the endpoint rule rejects an MBR-vs-MBR pair the kernel accepts at \
                 tau {tau} (partitions {ti} and {qi}, df {df}, dl {dl}): {pts:?} vs {:?}",
                q.ctx.points()
            );
        }
    }
}

/// Holds every stage, the endpoint rule and the whole pipeline against the
/// kernel on one ordered pair, for all five functions at the adversarial thresholds.
/// Returns how many (function, threshold) cases the kernel accepted.
fn check_pair(cand: &Row, query: &Row, scratch: &mut Scratch) -> usize {
    let (c, q) = (cand.soa().view(), query.soa().view());
    let mut accepted = 0;
    for func in &FUNCS {
        let own = func
            .verify_soa(c, q, f64::INFINITY, scratch)
            .expect("no pair is farther than infinity");
        for tau in [0.0, own.next_down(), own, own.next_up(), 0.5 * own + 0.25] {
            let tau = tau.max(0.0);
            let kernel = func.verify_soa(c, q, tau, scratch);
            if kernel.is_some() {
                accepted += 1;
                for (stage, prunes) in stages(func, cand, query, tau) {
                    assert!(
                        !prunes,
                        "{func}: {stage} rejects a pair the kernel accepts at tau {tau} \
                         (distance {own}): {:?} vs {:?}",
                        cand.ctx.points(),
                        query.ctx.points()
                    );
                }
                assert_endpoints_admit(func, cand, query, tau);
            }
            let pipeline = verify_pair_soa(cand.view(), &query.ctx, tau, func, scratch);
            assert_eq!(
                pipeline.map(f64::to_bits),
                kernel.map(f64::to_bits),
                "{func}: pipeline {pipeline:?} vs kernel {kernel:?} at tau {tau}: {:?} vs {:?}",
                cand.ctx.points(),
                query.ctx.points()
            );
        }
    }
    accepted
}

/// Every trajectory of `len` points over the 4 × 4 grid whose first point is
/// one of `firsts`.
fn grid_rows(len: usize, firsts: &[(u32, u32)]) -> Vec<Row> {
    let cell = |i: u32| Point::new((i % 4) as f64, (i / 4) as f64);
    let mut rows = Vec::new();
    for &(fx, fy) in firsts {
        for rest in 0..16u32.pow(len as u32 - 1) {
            let mut points = vec![Point::new(fx as f64, fy as f64)];
            let mut code = rest;
            for _ in 1..len {
                points.push(cell(code % 16));
                code /= 16;
            }
            rows.push(Row::new(points));
        }
    }
    rows
}

#[test]
fn no_stage_rejects_what_the_kernel_accepts_on_the_grid() {
    let everywhere: Vec<(u32, u32)> = (0..16).map(|i| (i % 4, i / 4)).collect();
    // One first point per orbit of the grid's symmetry group.
    let orbits = [(0, 0), (1, 0), (1, 1)];
    let long: Vec<Row> = (1..=3).flat_map(|n| grid_rows(n, &everywhere)).collect();
    let short: Vec<Row> = (1..=2).flat_map(|n| grid_rows(n, &orbits)).collect();
    assert_eq!((long.len(), short.len()), (16 + 256 + 4096, 3 + 48));
    let mut scratch = Scratch::new();
    let mut accepted = 0;
    for s in &short {
        for l in &long {
            // A short query wrapped by a longer member, and the reverse.
            accepted += check_pair(l, s, &mut scratch);
            accepted += check_pair(s, l, &mut scratch);
        }
    }
    assert!(accepted > 1_000_000, "accepted cases: {accepted}");
}

/// xorshift64* — deterministic, dependency-free randomness.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random walk of `len` points from somewhere in [0, 4]², a third of its
/// steps standing still (duplicate points).
fn walk(len: usize, step: f64, rng: &mut XorShift) -> Vec<Point> {
    let (mut x, mut y) = (rng.next_f64() * 4.0, rng.next_f64() * 4.0);
    (0..len)
        .map(|_| {
            let p = Point::new(x, y);
            if !rng.next_u64().is_multiple_of(3) {
                x += (rng.next_f64() - 0.5) * step;
                y += (rng.next_f64() - 0.5) * step;
            }
            p
        })
        .collect()
}

#[test]
fn no_stage_rejects_what_the_kernel_accepts_on_seeded_pairs() {
    let mut rng = XorShift(0x5eed_2101);
    let mut scratch = Scratch::new();
    // Three-point grid pairs, which the enumeration leaves to sampling.
    let three = grid_rows(3, &(0..16).map(|i| (i % 4, i / 4)).collect::<Vec<_>>());
    for _ in 0..20_000 {
        let a = &three[(rng.next_u64() % three.len() as u64) as usize];
        let b = &three[(rng.next_u64() % three.len() as u64) as usize];
        check_pair(a, b, &mut scratch);
    }
    // Walks of 1–40 points off the grid: short against long, long against
    // short, tight walks inside loose ones.
    let rows: Vec<Row> = (0..120)
        .map(|i| {
            let len = 1 + (rng.next_u64() % 40) as usize;
            let step = [0.05, 0.6, 3.0][i % 3];
            Row::new(walk(len, step, &mut rng))
        })
        .collect();
    let mut accepted = 0;
    for a in &rows {
        for b in &rows {
            accepted += check_pair(a, b, &mut scratch);
        }
    }
    assert!(accepted > 100_000, "accepted cases: {accepted}");
}

/// The list path: `try_verify_candidates` over a whole trie returns the
/// kernel's answers in candidate order, and its stage counts account for
/// every candidate exactly once.
#[test]
fn a_verified_list_is_the_kernels_answers_and_its_counts_add_up() {
    let mut rng = XorShift(0x5eed_2102);
    let table: Vec<Trajectory> = (0..200)
        .map(|i| {
            let len = 1 + (rng.next_u64() % 30) as usize;
            Trajectory::new(i, walk(len, 0.6, &mut rng))
        })
        .collect();
    let trie = TrieIndex::build(
        table,
        TrieConfig {
            k: 2,
            nl: 3,
            leaf_capacity: 4,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 1.0,
            ..TrieConfig::default()
        },
    );
    let everyone: Vec<u32> = (0..trie.len() as u32).collect();
    let mut scratch = Scratch::new();
    let mut pruned = [0usize; 2];
    for _ in 0..12 {
        let query = QueryContext::new(
            &walk(1 + (rng.next_u64() % 30) as usize, 0.6, &mut rng),
            1.0,
        );
        for func in &FUNCS {
            for tau in [0.0, 0.5, 2.0, 8.0] {
                let want: Vec<(u64, u64)> = everyone
                    .iter()
                    .filter_map(|&c| {
                        let e = trie.get(c);
                        func.verify_soa(e.soa(), query.soa().view(), tau, &mut scratch)
                            .map(|d| (e.id(), d.to_bits()))
                    })
                    .collect();
                let (hits, stats) = try_verify_candidates(&trie, &everyone, &query, tau, func)
                    .expect("every id is in range");
                let got: Vec<(u64, u64)> = hits.iter().map(|&(id, d)| (id, d.to_bits())).collect();
                assert_eq!(got, want, "{func} tau {tau}");
                assert_eq!(stats.candidates, everyone.len());
                assert_eq!(stats.accepted(), hits.len(), "{func} tau {tau}");
                assert_eq!(stats.funnel().survivors(), hits.len() as u64);
                if !matches!(func, DistanceFunction::Dtw | DistanceFunction::Frechet) {
                    assert_eq!(stats.pruned_coverage, 0, "{func} has no coverage stage");
                }
                pruned[0] += stats.pruned_coverage;
                pruned[1] += stats.pruned_bound;
            }
        }
    }
    // The cheap stages did run: the test is not vacuous.
    assert!(pruned[0] > 0 && pruned[1] > 0, "{pruned:?}");
}

/// How far inside the threshold a kernel-accepted pair must lie before the
/// trie filter is required to keep it. The rows' own cascade subtracts a
/// distance per level from τ where the kernel adds them up, so at a τ within
/// a few ulps of the pair's distance it can come out an ulp below zero and
/// reject (found by this file's run-rule case; ROADMAP item 3 lists it).
/// The run rule adds no rejection of its own at any τ — that is the exact
/// comparison with the rows' own probes — so the kernel comparison only has
/// to step over the cascade's rounding.
const CASCADE_SLACK: f64 = 1e-12;

/// One trie node holding `rows` in input order: any ascending id list is
/// one run of [`TrieIndex::probe_rows`].
fn one_run_trie(rows: &[&Row], k: usize) -> TrieIndex {
    let table = rows
        .iter()
        .enumerate()
        .map(|(i, r)| Trajectory::new(i as u64, r.ctx.points().to_vec()))
        .collect();
    TrieIndex::build(
        table,
        TrieConfig {
            k,
            nl: 1,
            leaf_capacity: usize::MAX,
            ..TrieConfig::default()
        },
    )
}

/// The run-level rule of the local join on every run of 1–4 consecutive
/// rows of `src` against a trie over `dst` in which every level exists
/// (first point, last point, `k` pivots; under EDR and LCSS each of them is
/// an edit level). At thresholds sitting on a distance of the run:
///
/// * it never rejects a node that some row's own `node_admits` admits —
///   `probe_rows` emits exactly the pairs the rows' own probes emit;
/// * it never rejects a pair the brute-force kernel accepts — held
///   [`CASCADE_SLACK`] inside the threshold, see there.
///
/// The rule compares `MinDist(run rectangle, node MBR)` where a row's own
/// cascade compares `MinDist(its point, node MBR)`: Lemma 5.1 (Appendix A's
/// edit count under EDR and LCSS) with `MinDist(MBR, MBR) ≤ MinDist(point,
/// MBR)` for a point inside the rectangle. Returns the pairs the kernel
/// accepted.
fn check_runs(src: &[&Row], dst: &[&Row], k: usize, nl: usize, scratch: &mut Scratch) -> usize {
    let src_trie = one_run_trie(src, k);
    let table = dst
        .iter()
        .enumerate()
        .map(|(i, r)| Trajectory::new(i as u64, r.ctx.points().to_vec()))
        .collect();
    let dst_trie = TrieIndex::build(
        table,
        TrieConfig {
            k,
            nl,
            leaf_capacity: 0,
            ..TrieConfig::default()
        },
    );
    // Local id → input row, on both sides.
    let src_row: Vec<&Row> = src_trie.entries().map(|e| src[e.id() as usize]).collect();
    let dst_row: Vec<&Row> = dst_trie.entries().map(|e| dst[e.id() as usize]).collect();
    let mut probe = ProbeScratch::new();
    let mut accepted = 0;
    for func in &FUNCS {
        // The kernel's own distance of every pair, once.
        let own: Vec<Vec<f64>> = src_row
            .iter()
            .map(|s| {
                let q = s.soa().view();
                dst_row
                    .iter()
                    .map(|c| {
                        func.verify_soa(c.soa().view(), q, f64::INFINITY, scratch)
                            .expect("no pair is farther than infinity")
                    })
                    .collect()
            })
            .collect();
        for width in 1..=4 {
            for first in (0..src.len() + 1 - width).step_by(width) {
                let run: Vec<u32> = (first as u32..(first + width) as u32).collect();
                let d = own[first][(7 * first) % dst.len()];
                for tau in [0.0, d.next_down(), d, d.next_up(), 0.5 * d + 0.25] {
                    let tau = tau.max(0.0);
                    let mut got = Vec::new();
                    dst_trie.probe_rows(&src_trie, &run, tau, func, &mut probe, |s, c| {
                        got.push((s, c))
                    });
                    got.sort_unstable();
                    let mut rows_own = Vec::new();
                    for &s in &run {
                        let q = src_row[s as usize].ctx.points();
                        rows_own.extend(
                            dst_trie
                                .candidates(q, tau, func)
                                .into_iter()
                                .map(|c| (s, c)),
                        );
                    }
                    assert_eq!(
                        got, rows_own,
                        "{func}: the run rule and the rows' own probes differ at tau {tau}, run {run:?}"
                    );
                    for &s in &run {
                        for (c, &dist) in own[s as usize].iter().enumerate() {
                            if dist * (1.0 + CASCADE_SLACK) <= tau {
                                accepted += 1;
                                assert!(
                                    got.binary_search(&(s, c as u32)).is_ok(),
                                    "{func}: the run rule rejects a pair the kernel accepts at tau \
                                     {tau} (distance {dist}), run {run:?}: {:?} vs {:?}",
                                    src_row[s as usize].ctx.points(),
                                    dst_row[c].ctx.points()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    accepted
}

#[test]
fn the_run_rule_rejects_no_node_a_row_admits_and_no_pair_the_kernel_accepts() {
    let everywhere: Vec<(u32, u32)> = (0..16).map(|i| (i % 4, i / 4)).collect();
    let mut rng = XorShift(0x5eed_2403);
    let mut scratch = Scratch::new();
    // The grid: every 1- and 2-point trajectory and a sample of the 3-point
    // ones on both sides, neighbours in the enumeration sharing a run.
    let grid: Vec<Row> = (1..=3).flat_map(|n| grid_rows(n, &everywhere)).collect();
    let dst: Vec<&Row> = grid
        .iter()
        .enumerate()
        .filter(|&(i, _)| i < 272 || i % 17 == 0)
        .map(|(_, r)| r)
        .collect();
    let src: Vec<&Row> = grid.iter().step_by(73).collect();
    let mut accepted = check_runs(&src, &dst, 1, 3, &mut scratch);
    // Seeded walks of 1–40 points: several pivots a row, long suffixes.
    let walks: Vec<Row> = (0..200)
        .map(|i| {
            let len = 1 + (rng.next_u64() % 40) as usize;
            Row::new(walk(len, [0.05, 0.6, 3.0][i % 3], &mut rng))
        })
        .collect();
    let (src, dst): (Vec<&Row>, Vec<&Row>) =
        (walks[..40].iter().collect(), walks[40..].iter().collect());
    accepted += check_runs(&src, &dst, 3, 2, &mut scratch);
    assert!(accepted > 100_000, "accepted cases: {accepted}");
}
