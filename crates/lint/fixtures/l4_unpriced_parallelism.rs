// Known-bad fixture for rule L4 (unpriced-parallelism). Never
// compiled; linted as if it lived in a cost-modeled crate.

fn broken_pool(items: &[u64]) -> u64 {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().ok();
    let total = std::sync::atomic::AtomicU64::new(0);
    pool.unwrap().scope(|s| {
        for chunk in items.chunks(8) {
            s.spawn(|_| {
                total.fetch_add(chunk.iter().sum::<u64>(), Relaxed);
            });
        }
    });
    total.into_inner()
}

fn priced_pool(items: &[u64]) -> u64 {
    let t0 = thread_cpu_time();
    let out = rayon::scope(|_s| items.iter().sum());
    charge_compute(thread_cpu_time().saturating_sub(t0));
    out
}

fn broken_fan_out(items: &[u64]) -> Vec<u64> {
    // Builds the shared fan-out and drops the helper CPU time it kept.
    let fan = FanOut::new(4);
    fan.map(items, |x| x * 2)
}

fn priced_fan_out(items: &[u64]) -> (Vec<u64>, Duration) {
    let fan = FanOut::new(4);
    let out = fan.map(items, |x| x * 2);
    (out, fan.helper_cpu())
}
