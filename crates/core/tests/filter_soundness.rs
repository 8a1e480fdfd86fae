//! Filter soundness: verification's rows, the trie's member test's, the
//! endpoint-pair rule's and the local join's run-level rule's (ROADMAP,
//! "Finish the soundness oracle").
//!
//! Every "≡" test in this repository compares two paths that share their
//! filters. The only side with no filter is the kernel, so this harness
//! holds each cheap stage of `dita_core::verify` against it: for all five
//! distance functions, no stage taken alone rejects a pair the thresholded
//! kernel accepts, and the whole pipeline returns what the kernel alone
//! returns, distance bits included. So is the trie's exact member test
//! (`member_admits`, through `TrieIndex::leaf_verdicts`), all of its arms
//! at once, and the subtree test every node on a member's path puts in
//! front of it (`extent_admits`, through `TrieIndex::extent_verdicts`). The
//! endpoint-pair budget rule
//! (`IndexMode::endpoints_admit`, which the global index, the join's
//! partition-pair screen and its shipped-row screen all call) is held
//! against the same kernel in both shapes it is used in, and
//! `GlobalIndex::relevant_partitions`, which applies it behind its own
//! pre-screen, on a real STR partitioning, together with the extent screen
//! a search puts behind it (`TrieIndex::extent_admits`); so is the
//! rectangle test `TrieIndex::probe_rows` puts in front of every trie node
//! for a whole run of shipped rows, level kind by level kind. The block
//! screen in front of the trie's exact member test is held against that
//! test, which it must never overrule.
//!
//! | stage | lemma | functions |
//! |---|---|---|
//! | MBR coverage | Lemma 5.4 | DTW, Fréchet |
//! | verify: point-to-MBR, candidate points → query MBR | Lemma 5.4, point by point | DTW, Fréchet |
//! | trie member test (`member_admits`): endpoint levels, query points → member MBR, pivot levels | Lemma 5.1; Lemma 5.4, point by point, roles swapped | DTW, Fréchet |
//! | trie member test (`member_admits`): the edit count over the indexing points | Appendix A | EDR, LCSS |
//! | trie node test (`extent_admits`): query points → the node's subtree extent, every node on the member's path | Lemma 5.4, point by point, roles swapped, for a box holding every member below | DTW, Fréchet |
//! | length | Appendix A, `EDR ≥ \|m − n\|` | EDR |
//! | magnitude | Chen & Ng, `ERP ≥ \|Σ dist(tᵢ, g) − Σ dist(qⱼ, g)\|` | ERP |
//! | endpoints, point vs MBR (`relevant_partitions`, `endpoint_members`) | §5.2; Appendix A for Fréchet, EDR, LCSS | all five |
//! | endpoints, MBR vs MBR (`build_edges`' screen) | the same, §6.2 | all five |
//! | `relevant_partitions` on an STR partitioning: R-tree pre-screen (`for_each_within_point`), then the endpoint rule | §5.2, Appendix A | DTW, Fréchet |
//! | `relevant_partitions` on an STR partitioning: the partition table enumerated | Appendix A | EDR, LCSS, ERP |
//! | the delta overlay's segment screen (`DeltaSet::seg_relevant`): the endpoint rule over each flushed segment's summary, on a dirty table | §5.2, Appendix A | all five |
//! | the search's partition screen (`TrieIndex::extent_admits`): query points → the union of the partition's member MBRs | Lemma 5.4, point by point, roles swapped | DTW, Fréchet |
//! | run rectangles vs node MBR, first / last / pivot levels (`probe_rows`) | Lemma 5.1 with `MinDist(MBR, MBR) ≤ MinDist(point, MBR)` | DTW, Fréchet |
//! | run rectangles vs node MBR, edit levels (`probe_rows`) | Appendix A's edit count, the same inequality | EDR, LCSS |
//! | block screen, squared endpoint distances vs `τ²·(1 + κ)` (both walks' members) | `√(a² + b²) ≤ a + b`, held against `member_admits` | DTW, Fréchet |
//! | the kernel itself at τ = the distance it returns (`verify_soa`) | "within τ" is the returned value `≤ τ`; Fréchet's band allowance (`frechet_limit`) | all five |
//!
//! The thresholds are the adversarial ones: 0, the kernel's own distance
//! and one ulp either side of it, and one value in between. Trajectories of
//! at most three points over a 4 × 4 grid are enumerated (the short side of
//! a pair up to the grid's eight symmetries, which fix ERP's gap point at
//! the centre); everything longer is seeded.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::verify::CandidateView;
use dita_core::{
    try_verify_candidates, verify_pair_soa, CompactionPolicy, DitaConfig, DitaSystem, QueryContext,
};
use dita_datagen::beijing_like;
use dita_distance::kernel::Scratch;
use dita_distance::{bounds, DistanceFunction};
use dita_index::{
    str_partitioning, GlobalIndex, PivotStrategy, ProbeScratch, TrieConfig, TrieIndex,
};
use dita_rng::MarsagliaStar as XorShift;
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

/// "Within τ" is the returned distance `≤ τ`: every function's kernel
/// accepts a pair at τ equal to the distance it returns for that pair, with
/// no slack, on the grid (a short side against a longer one, both ways),
/// on Figure 1 against T1 moved off the grid, and on seeded walks. Returns
/// the pairs checked.
fn check_own_distance(rows: &[(&Row, &Row)], scratch: &mut Scratch) -> usize {
    for (a, b) in rows {
        let (c, q) = (a.soa().view(), b.soa().view());
        for func in &FUNCS {
            let own = func
                .verify_soa(c, q, f64::INFINITY, scratch)
                .expect("no pair is farther than infinity");
            let got = func.verify_soa(c, q, own, scratch);
            assert_eq!(
                got.map(f64::to_bits),
                Some(own.to_bits()),
                "{func} rejects a pair at its own distance {own}: {:?} vs {:?}",
                a.ctx.points(),
                b.ctx.points()
            );
        }
    }
    rows.len()
}

#[test]
fn every_kernel_accepts_each_pair_at_its_own_distance() {
    let everywhere: Vec<(u32, u32)> = (0..16).map(|i| (i % 4, i / 4)).collect();
    let orbits = [(0, 0), (1, 0), (1, 1)];
    let long: Vec<Row> = (1..=3).flat_map(|n| grid_rows(n, &everywhere)).collect();
    let short: Vec<Row> = (1..=2).flat_map(|n| grid_rows(n, &orbits)).collect();
    let mut scratch = Scratch::new();
    let grid: Vec<(&Row, &Row)> = short
        .iter()
        .flat_map(|s| long.iter().flat_map(move |l| [(l, s), (s, l)]))
        .collect();
    let mut checked = check_own_distance(&grid, &mut scratch);
    // T1 off the grid, where Fréchet's squares rounded past τ² at T1's own
    // distances before the kernel compared the root.
    let off_grid = Row::new(
        [
            (1.1, 0.7),
            (1.3, 2.1),
            (2.9, 2.2),
            (4.1, 3.7),
            (4.3, 5.1),
            (5.2, 4.9),
        ]
        .map(|(x, y)| Point::new(x, y))
        .to_vec(),
    );
    let figure1: Vec<Row> = dita_trajectory::trajectory::figure1_trajectories()
        .iter()
        .map(|t| Row::new(t.points().to_vec()))
        .collect();
    let pairs: Vec<(&Row, &Row)> = figure1
        .iter()
        .flat_map(|r| [(r, &off_grid), (&off_grid, r)])
        .collect();
    checked += check_own_distance(&pairs, &mut scratch);
    let mut rng = XorShift(0x5eed_2801);
    let walks: Vec<Row> = (0..120)
        .map(|i| {
            let len = 1 + (rng.next_u64() % 40) as usize;
            Row::new(walk(len, [0.05, 0.6, 3.0][i % 3], &mut rng))
        })
        .collect();
    let pairs: Vec<(&Row, &Row)> = walks
        .iter()
        .flat_map(|a| walks.iter().map(move |b| (a, b)))
        .collect();
    checked += check_own_distance(&pairs, &mut scratch);
    assert_eq!(checked, 2 * 51 * 4368 + 10 + 120 * 120);
}

/// `GlobalIndex::relevant_partitions` over the STR partitioning of `rows`
/// into up to `ng²` partitions, for each `ng` of `ngs`, every row both
/// stored and a query: at every τ ∈ {0, d⁻, d, d⁺} (d the pair's kernel
/// distance) at which the kernel accepts a stored row against a query,
/// the row's partition is relevant to the query. DTW and Fréchet go
/// through the R-trees' pre-screen (`for_each_within_point`) and then the
/// endpoint rule; EDR, LCSS and ERP through the enumerated partition
/// table. The search's partition screen is held alongside: the trie built
/// over the row's partition passes `TrieIndex::extent_admits` (DTW and
/// Fréchet test the query against the union of the members' MBRs, with no
/// slack; the others admit). Returns the accepted cases.
fn check_relevant_partitions(rows: &[&Row], ngs: &[usize], scratch: &mut Scratch) -> usize {
    let table: Vec<Trajectory> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| Trajectory::new(i as u64, r.ctx.points().to_vec()))
        .collect();
    // Per partitioning: its global index, each row's partition, and each
    // partition's trie.
    let indexes: Vec<(usize, GlobalIndex, Vec<usize>, Vec<TrieIndex>)> = ngs
        .iter()
        .map(|&ng| {
            let partitioning = str_partitioning(&table, ng);
            let mut home = vec![usize::MAX; rows.len()];
            let mut tries = Vec::new();
            for p in &partitioning.partitions {
                for &m in &p.members {
                    home[m] = p.id;
                }
                assert_eq!(p.id, tries.len(), "partitions are numbered in order");
                let members = p.members.iter().map(|&m| table[m].clone()).collect();
                tries.push(TrieIndex::build(members, TrieConfig::default()));
            }
            (ng, GlobalIndex::build(&partitioning), home, tries)
        })
        .collect();
    let mut accepted = 0;
    for q in rows {
        let pts = q.ctx.points();
        let (first, last) = (&pts[0], &pts[pts.len() - 1]);
        for func in &FUNCS {
            for (ti, t) in rows.iter().enumerate() {
                let (c, qv) = (t.soa().view(), q.soa().view());
                let own = func
                    .verify_soa(c, qv, f64::INFINITY, scratch)
                    .expect("no pair is farther than infinity");
                for tau in [0.0, own.next_down(), own, own.next_up()] {
                    let tau = tau.max(0.0);
                    if func.verify_soa(c, qv, tau, scratch).is_none() {
                        continue;
                    }
                    accepted += 1;
                    for (ng, global, home, tries) in &indexes {
                        let relevant = global.relevant_partitions(
                            first,
                            last,
                            pts.len(),
                            tau,
                            func.index_mode(),
                        );
                        assert!(
                            relevant.binary_search(&home[ti]).is_ok(),
                            "{func}, ng {ng}: partition {} is not relevant at tau {tau} \
                             (distance {own}), its row {:?} vs query {pts:?}; relevant {relevant:?}",
                            home[ti],
                            t.ctx.points()
                        );
                        assert!(
                            tries[home[ti]].extent_admits(qv, tau, func),
                            "{func}, ng {ng}: partition {}'s extent rules out an answer at \
                             tau {tau} (distance {own}), its row {:?} vs query {pts:?}",
                            home[ti],
                            t.ctx.points()
                        );
                    }
                }
            }
        }
    }
    accepted
}

#[test]
fn relevant_partitions_keep_every_partition_the_kernel_answers_from() {
    let everywhere: Vec<(u32, u32)> = (0..16).map(|i| (i % 4, i / 4)).collect();
    let grid: Vec<Row> = (1..=3).flat_map(|n| grid_rows(n, &everywhere)).collect();
    let mut rng = XorShift(0x5eed_2901);
    let walks: Vec<Row> = (0..40)
        .map(|i| {
            let len = 1 + (rng.next_u64() % 30) as usize;
            Row::new(walk(len, [0.05, 0.6, 3.0][i % 3], &mut rng))
        })
        .collect();
    // Every one-point grid row (a pair of them is at distance √13 = the
    // first-point MinDist, where a squared compare rounds the wrong way),
    // and a slice of the longer ones.
    let rows: Vec<&Row> = walks
        .iter()
        .chain(&grid[..16])
        .chain(grid[16..].iter().step_by(47))
        .collect();
    let mut scratch = Scratch::new();
    let accepted = check_relevant_partitions(&rows, &[2, 3], &mut scratch);
    assert!(accepted > 20_000, "accepted cases: {accepted}");
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
                let (hits, stats) =
                    try_verify_candidates(&trie, &everyone, &query, tau, func, &mut scratch)
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
/// * it never rejects a pair the brute-force kernel accepts, at the
///   threshold itself.
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
                            if dist <= tau {
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

/// The block screen against the exact cascade behind it, on every (row,
/// member) pair of `rows` × `members` for all five functions, at τ ∈ {0,
/// the pair's kernel distance ± 1 ulp, its endpoint bound ± 1 ulp, a value
/// in between, ∞, NaN}: the screen never rejects a pair `member_admits`
/// admits (`TrieIndex::leaf_verdicts` returns both verdicts). Returns
/// (pairs the cascade admitted, pairs the screen rejected).
///
/// The lemma: the screen rejects where `a² + b² > τ²·(1 + κ)` (`Additive`)
/// or `max(a², b²) > τ²·(1 + κ)` (`Max`), `a`, `b` the first- and last-point
/// distances the cascade subtracts or compares; `√(a² + b²) ≤ a + b` and
/// `max(a, b) ≤ a + b`, so in ℝ a rejected pair has `a + b > τ` — and `κ`
/// covers the cascade's rounding and its slack (the margins are on
/// `MemberEnds::screen`).
fn check_screen(rows: &[Row], members: &[Vec<Point>], scratch: &mut Scratch) -> (usize, usize) {
    let table = members
        .iter()
        .enumerate()
        .map(|(i, p)| Trajectory::new(i as u64, p.clone()))
        .collect();
    let trie = TrieIndex::build(table, TrieConfig::default());
    let (mut admitted, mut screened) = (0, 0);
    for row in rows {
        let q = row.soa().view();
        let (first, last) = (q.point(0), q.point(q.len() - 1));
        for m in 0..trie.len() as u32 {
            let e = trie.get(m);
            let ips = e.index_points();
            let a = ips[0].dist(&first);
            let b = ips.get(1).map_or(0.0, |p| p.dist(&last));
            for func in &FUNCS {
                // NaN where coordinates near the top of the range overflow
                // the kernel's arithmetic.
                let own = func
                    .verify_soa(e.soa(), q, f64::INFINITY, scratch)
                    .unwrap_or(f64::NAN);
                let bound = match func {
                    DistanceFunction::Frechet => a.max(b),
                    _ => a + b,
                };
                for tau in [
                    0.0,
                    own.next_down(),
                    own,
                    own.next_up(),
                    bound.next_down(),
                    bound,
                    bound.next_up(),
                    0.5 * own + 0.25,
                    f64::INFINITY,
                    f64::NAN,
                ] {
                    let (screen, cascade) = trie.leaf_verdicts(m, q, tau, func);
                    assert!(
                        screen || !cascade,
                        "{func}: the block screen rejects a member the cascade admits at tau \
                         {tau} (endpoints {a} and {b}, distance {own}): {:?} vs {:?}",
                        e.points_vec(),
                        row.ctx.points()
                    );
                    admitted += cascade as usize;
                    screened += !screen as usize;
                }
            }
        }
    }
    (admitted, screened)
}

#[test]
fn the_block_screen_rejects_no_member_the_cascade_admits() {
    let everywhere: Vec<(u32, u32)> = (0..16).map(|i| (i % 4, i / 4)).collect();
    let mut scratch = Scratch::new();
    // The grid: every 1- and 2-point member (one indexing point and two)
    // against a sample of the 1- to 3-point rows, one-point rows included.
    let grid: Vec<Row> = (1..=3).flat_map(|n| grid_rows(n, &everywhere)).collect();
    let members: Vec<Vec<Point>> = grid[..272]
        .iter()
        .map(|r| r.ctx.points().to_vec())
        .collect();
    let rows: Vec<Row> = grid
        .iter()
        .step_by(41)
        .map(|r| Row::new(r.ctx.points().to_vec()))
        .collect();
    let (mut admitted, mut screened) = check_screen(&rows, &members, &mut scratch);
    // Seeded walks of 1–40 points.
    let mut rng = XorShift(0x5eed_2603);
    let mut walks = |n: usize| -> Vec<Vec<Point>> {
        (0..n)
            .map(|i| {
                walk(
                    1 + (rng.next_u64() % 40) as usize,
                    [0.05, 0.6, 3.0][i % 3],
                    &mut rng,
                )
            })
            .collect()
    };
    let rows: Vec<Row> = walks(40).into_iter().map(Row::new).collect();
    let (a, s) = check_screen(&rows, &walks(120), &mut scratch);
    (admitted, screened) = (admitted + a, screened + s);
    // The grid scaled to where squares turn subnormal (1e-160), underflow
    // to zero (1e-170), come near the top of the range (1e150) and
    // overflow to infinity (1e160).
    for scale in [1e-160, 1e-170, 1e150, 1e160] {
        let scaled = |p: &[Point]| -> Vec<Point> {
            p.iter()
                .map(|p| Point::new(p.x * scale, p.y * scale))
                .collect()
        };
        let members: Vec<Vec<Point>> = members.iter().map(|p| scaled(p)).collect();
        let rows: Vec<Row> = grid
            .iter()
            .step_by(97)
            .map(|r| Row::new(scaled(r.ctx.points())))
            .collect();
        let (a, s) = check_screen(&rows, &members, &mut scratch);
        (admitted, screened) = (admitted + a, screened + s);
    }
    // Not vacuous: the cascade admitted pairs and the screen decided many.
    assert!(
        admitted > 100_000 && screened > 100_000,
        "{admitted} admitted, {screened} screened"
    );
}

/// The trie's exact member test against the kernel, on every (row, member)
/// pair of `rows` × `members` for all five functions, at τ ∈ {0, d⁻, d,
/// d⁺} (d the pair's kernel distance): wherever `verify_soa` accepts the
/// member against the row, `member_admits` — through
/// `TrieIndex::leaf_verdicts`' `cascade` — admits it. Under DTW and Fréchet
/// that is the endpoint levels, the row's points against the member's MBR
/// and the pivot levels; under EDR and LCSS the edit count; ERP's `Scan`
/// admits everything. Returns (pairs the kernel accepted, pairs the
/// cascade rejected).
fn check_member_test(
    rows: &[Row],
    members: &[Vec<Point>],
    scratch: &mut Scratch,
) -> (usize, usize) {
    let table = members
        .iter()
        .enumerate()
        .map(|(i, p)| Trajectory::new(i as u64, p.clone()))
        .collect();
    let trie = TrieIndex::build(table, TrieConfig::default());
    let (mut accepted, mut rejected) = (0, 0);
    for row in rows {
        let q = row.soa().view();
        for m in 0..trie.len() as u32 {
            let e = trie.get(m);
            for func in &FUNCS {
                let own = func
                    .verify_soa(e.soa(), q, f64::INFINITY, scratch)
                    .expect("no pair is farther than infinity");
                for tau in [0.0, own.next_down(), own, own.next_up()] {
                    let tau = tau.max(0.0);
                    let (_, cascade) = trie.leaf_verdicts(m, q, tau, func);
                    rejected += !cascade as usize;
                    if func.verify_soa(e.soa(), q, tau, scratch).is_some() {
                        accepted += 1;
                        assert!(
                            cascade,
                            "{func}: the member test rejects a pair the kernel accepts at tau \
                             {tau} (distance {own}): {:?} vs {:?}",
                            e.points_vec(),
                            row.ctx.points()
                        );
                    }
                }
            }
        }
    }
    (accepted, rejected)
}

#[test]
fn the_member_test_rejects_no_pair_the_kernel_accepts() {
    let everywhere: Vec<(u32, u32)> = (0..16).map(|i| (i % 4, i / 4)).collect();
    let orbits = [(0, 0), (1, 0), (1, 1)];
    let long: Vec<Row> = (1..=3).flat_map(|n| grid_rows(n, &everywhere)).collect();
    let short: Vec<Row> = (1..=2).flat_map(|n| grid_rows(n, &orbits)).collect();
    let points = |rows: &[Row]| -> Vec<Vec<Point>> {
        rows.iter().map(|r| r.ctx.points().to_vec()).collect()
    };
    let mut scratch = Scratch::new();
    // The grid: a short row against every longer member, and the reverse.
    let (mut accepted, mut rejected) = check_member_test(&short, &points(&long), &mut scratch);
    let (a, r) = check_member_test(&long, &points(&short), &mut scratch);
    (accepted, rejected) = (accepted + a, rejected + r);
    // Seeded walks of 1–40 points: several pivots a member, long suffixes.
    let mut rng = XorShift(0x5eed_3401);
    let walks: Vec<Row> = (0..120)
        .map(|i| {
            let len = 1 + (rng.next_u64() % 40) as usize;
            Row::new(walk(len, [0.05, 0.6, 3.0][i % 3], &mut rng))
        })
        .collect();
    let (a, r) = check_member_test(&walks, &points(&walks), &mut scratch);
    (accepted, rejected) = (accepted + a, rejected + r);
    // Not vacuous: the kernel accepted pairs and the cascade rejected many.
    assert!(
        accepted > 1_000_000 && rejected > 1_000_000,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// The subtree test against the kernel, on every (row, member) pair of
/// `rows` × `members` under DTW and Fréchet, at τ ∈ {0, d⁻, d, d⁺} (d the
/// pair's kernel distance), on a trie built with `config`: wherever
/// `verify_soa` accepts the member against the row, `extent_admits` —
/// through `TrieIndex::extent_verdicts` — admits the row at every node on
/// the member's path. Each extent holds every point of every member below
/// it, so the query-to-extent bound is Lemma 5.4's with a larger box, with
/// no slack. Returns (pairs the kernel accepted, pairs some extent on the
/// path rejected).
fn check_extent_test(
    rows: &[Row],
    members: &[Vec<Point>],
    config: TrieConfig,
    scratch: &mut Scratch,
) -> (usize, usize) {
    let table = members
        .iter()
        .enumerate()
        .map(|(i, p)| Trajectory::new(i as u64, p.clone()))
        .collect();
    let trie = TrieIndex::build(table, config);
    let (mut accepted, mut rejected) = (0, 0);
    for row in rows {
        let q = row.soa().view();
        for m in 0..trie.len() as u32 {
            let e = trie.get(m);
            for func in &FUNCS[..2] {
                let own = func
                    .verify_soa(e.soa(), q, f64::INFINITY, scratch)
                    .expect("no pair is farther than infinity");
                for tau in [0.0, own.next_down(), own, own.next_up()] {
                    let tau = tau.max(0.0);
                    let path = trie.extent_verdicts(m, q, tau, func);
                    let admitted = path.iter().all(|&v| v);
                    rejected += !admitted as usize;
                    if func.verify_soa(e.soa(), q, tau, scratch).is_some() {
                        accepted += 1;
                        assert!(
                            admitted,
                            "{func}: a node's extent rejects a pair the kernel accepts at tau \
                             {tau} (distance {own}, path {path:?}): {:?} vs {:?}",
                            e.points_vec(),
                            row.ctx.points()
                        );
                    }
                }
            }
        }
    }
    (accepted, rejected)
}

#[test]
fn no_extent_on_a_members_path_rejects_a_pair_the_kernel_accepts() {
    let everywhere: Vec<(u32, u32)> = (0..16).map(|i| (i % 4, i / 4)).collect();
    let orbits = [(0, 0), (1, 0), (1, 1)];
    let long: Vec<Row> = (1..=3).flat_map(|n| grid_rows(n, &everywhere)).collect();
    let short: Vec<Row> = (1..=2).flat_map(|n| grid_rows(n, &orbits)).collect();
    let points = |rows: &[Row]| -> Vec<Vec<Point>> {
        rows.iter().map(|r| r.ctx.points().to_vec()).collect()
    };
    // The default shape (a leaf of a few members under each root), and a
    // deep one whose paths run through pivot levels.
    let deep = TrieConfig {
        k: 3,
        nl: 4,
        leaf_capacity: 2,
        ..TrieConfig::default()
    };
    let mut scratch = Scratch::new();
    // The grid: a short row against every longer member, and the reverse.
    let (mut accepted, mut rejected) =
        check_extent_test(&short, &points(&long), TrieConfig::default(), &mut scratch);
    let (a, r) = check_extent_test(&long, &points(&short), deep, &mut scratch);
    (accepted, rejected) = (accepted + a, rejected + r);
    // Seeded walks of 1–40 points, on both shapes.
    let mut rng = XorShift(0x5eed_3501);
    let walks: Vec<Row> = (0..120)
        .map(|i| {
            let len = 1 + (rng.next_u64() % 40) as usize;
            Row::new(walk(len, [0.05, 0.6, 3.0][i % 3], &mut rng))
        })
        .collect();
    for config in [TrieConfig::default(), deep] {
        let (a, r) = check_extent_test(&walks, &points(&walks), config, &mut scratch);
        (accepted, rejected) = (accepted + a, rejected + r);
    }
    // Not vacuous: the kernel accepted pairs and the extents rejected many.
    assert!(
        accepted > 100_000 && rejected > 100_000,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// The delta overlay's segment screen (`DeltaSet::seg_relevant`: the
/// endpoint rule over each flushed segment's summary) on a dirty
/// `beijing_like` table — flushed segments with dead members, and a tail.
/// At every τ ∈ {0, d⁻, d, d⁺} (d the kernel's distance from a query to a
/// live segment member) at which the kernel accepts the member, the
/// member's segment is relevant to the query, for all five functions.
/// The queries are the live members themselves (d = 0, where the rule's
/// budget is exactly spent) and rows of another seed.
#[test]
fn the_segment_screen_keeps_every_segment_the_kernel_answers_from() {
    let config = DitaConfig {
        ng: 4,
        ..DitaConfig::default()
    };
    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let mut sys = DitaSystem::build(&beijing_like(300, 11), config, cluster);
    sys.set_compaction_policy(CompactionPolicy { auto: false });
    let fresh = beijing_like(100, 12).trajectories().to_vec();
    let fresh_row = |i: usize| Trajectory::new(10_000 + i as u64, fresh[i].points().to_vec());
    for i in 0..80 {
        sys.insert(fresh_row(i));
    }
    sys.flush();
    for i in (0..80).step_by(7) {
        assert!(sys.delete(10_000 + i as u64));
    }
    for i in 80..100 {
        sys.insert(fresh_row(i));
    }

    let deltas = sys.deltas();
    // Each live segment member: its partition, points and SoA copy.
    let members: Vec<(usize, Vec<Point>, SoaPoints)> = deltas
        .parts()
        .iter()
        .enumerate()
        .filter_map(|(pid, part)| Some((pid, part.seg.as_ref()?)))
        .flat_map(|(pid, seg)| seg.live().map(move |t| (pid, t)))
        .map(|(pid, t)| (pid, t.points().to_vec(), SoaPoints::from_points(t.points())))
        .collect();
    let segments: std::collections::BTreeSet<usize> = members.iter().map(|m| m.0).collect();
    assert!(segments.len() >= 3, "segments: {segments:?}");
    assert!(deltas
        .parts()
        .iter()
        .any(|p| p.seg.as_ref().is_some_and(|s| !s.dead.is_empty())));
    assert!(deltas.parts().iter().any(|p| !p.tail.is_empty()));

    let others = beijing_like(15, 13);
    let queries: Vec<&[Point]> = members
        .iter()
        .map(|m| &m.1[..])
        .chain(others.trajectories().iter().map(|t| t.points()))
        .collect();
    let funcs = [
        DistanceFunction::Dtw,
        DistanceFunction::Frechet,
        DistanceFunction::Edr { eps: 0.002 },
        DistanceFunction::Lcss {
            eps: 0.002,
            delta: 2,
        },
        DistanceFunction::Erp { gap: (39.9, 116.4) },
    ];
    let mut scratch = Scratch::new();
    let mut accepted = 0;
    for &pts in &queries {
        let q = SoaPoints::from_points(pts);
        let (first, last) = (&pts[0], &pts[pts.len() - 1]);
        for func in &funcs {
            for (pid, _, m) in &members {
                let (c, qv) = (m.view(), q.view());
                let own = func
                    .verify_soa(c, qv, f64::INFINITY, &mut scratch)
                    .expect("no pair is farther than infinity");
                for tau in [0.0, own.next_down(), own, own.next_up()] {
                    let tau = tau.max(0.0);
                    if func.verify_soa(c, qv, tau, &mut scratch).is_none() {
                        continue;
                    }
                    accepted += 1;
                    let relevant =
                        deltas.seg_relevant(first, last, pts.len(), tau, func.index_mode());
                    assert!(
                        relevant.contains(pid),
                        "{func}: segment {pid} is not relevant at tau {tau} (distance {own}) \
                         to query {pts:?}; relevant {relevant:?}"
                    );
                }
            }
        }
    }
    assert!(accepted > 20_000, "accepted cases: {accepted}");
}
