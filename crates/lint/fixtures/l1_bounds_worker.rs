// Known-bad fixture for rule L1 (worker-panic), bounds scope. Never
// compiled; the fixture test lints it as `crates/distance/src/bounds.rs`,
// where only the functions verification calls per candidate are in scope.

pub fn point_mbr_sum(t: SoaView<'_>, mbr: &Mbr, tau: f64) -> f64 {
    let first = t.xs.first().unwrap();
    mbr.min_dist_point(&Point::new(*first, t.ys[0])).min(tau)
}

pub fn magnitude_bound_erp(sum_t: f64, m: usize, sum_q: f64, n: usize, tau: f64) -> bool {
    let slack = slack_of(m, n).expect("finite");
    (sum_t - sum_q).abs() > tau + slack
}

// Driver-side estimations may assert their contract.
pub fn pamd(t: &[Point], q: &[Point], pivots: &[usize]) -> f64 {
    let last = pivots.last().expect("at least one pivot");
    t[*last].dist(&q[0])
}
