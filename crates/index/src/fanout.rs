//! The one ordered fan-out the build and planning paths share.
//!
//! Index construction, partitioning and join planning all have steps of
//! the same shape: independent items, each mapped to a result, the results
//! needed in input order so the output is identical for every thread count.
//! [`FanOut`] is that shape once: built from a thread count for the length
//! of one operation, it maps inline on one thread and in chunks on a pool
//! otherwise, and keeps the CPU time its helper threads burn so the caller
//! can charge it to the simulated cost model (dita-lint's
//! `unpriced-parallelism` checks that it does).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// An ordered parallel map over a pool of `threads` threads.
pub struct FanOut {
    threads: usize,
    /// Built by the first map that has more than one item to spread, so an
    /// operation over a single item starts no thread.
    pool: OnceLock<Option<rayon::ThreadPool>>,
    helper_ns: AtomicU64,
}

impl FanOut {
    /// A fan-out over `threads` threads; `threads ≤ 1` maps inline on the
    /// calling thread.
    pub fn new(threads: usize) -> Self {
        FanOut {
            threads: threads.max(1),
            pool: OnceLock::new(),
            helper_ns: AtomicU64::new(0),
        }
    }

    /// The thread count maps are spread over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `items.map(f)`, collected in input order: [`FanOut::map_init`] with
    /// no state.
    pub fn map<I, R, F>(&self, items: I, f: F) -> Vec<R>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: Send,
        R: Send,
        F: Fn(I::Item) -> R + Sync,
    {
        self.map_init(items, || (), |(), item| f(item))
    }

    /// `items.map(|item| f(&mut state, item))`, collected in input order,
    /// where `state` is an `init()` the items of one chunk share — scratch
    /// buffers that are worth growing once, not once an item. With a pool
    /// and more than one item, the items are cut into about four chunks a
    /// thread (so an uneven chunk does not leave the others idle), each
    /// chunk is one spawn filling its own slot, and the slots are
    /// concatenated; inline, all items are one chunk. As long as `f`'s
    /// result does not depend on what earlier items left in the state, the
    /// result is the serial one for every thread count. Spawns do not
    /// nest, so the per-spawn CPU deltas count every helper cycle once.
    pub fn map_init<I, S, R, N, F>(&self, items: I, init: N, f: F) -> Vec<R>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: Send,
        R: Send,
        N: Fn() -> S + Sync,
        F: Fn(&mut S, I::Item) -> R + Sync,
    {
        let mut items = items.into_iter();
        let n = items.len();
        let run = |chunk: &mut dyn Iterator<Item = I::Item>| -> Vec<R> {
            let mut state = init();
            chunk.map(|item| f(&mut state, item)).collect()
        };
        let build = || {
            rayon::ThreadPoolBuilder::new()
                .num_threads(self.threads)
                .build()
                .ok()
        };
        let pool = (self.threads > 1 && n > 1).then(|| self.pool.get_or_init(build));
        let Some(Some(pool)) = pool else {
            return run(&mut items);
        };
        let chunk = n.div_ceil(self.threads * 4);
        let batches: Vec<Vec<I::Item>> = (0..n.div_ceil(chunk))
            .map(|_| items.by_ref().take(chunk).collect())
            .collect();
        let mut slots: Vec<Vec<R>> = Vec::new();
        slots.resize_with(batches.len(), Vec::new);
        let (run, helper_ns) = (&run, &self.helper_ns);
        pool.scope(|s| {
            for (batch, slot) in batches.into_iter().zip(slots.iter_mut()) {
                s.spawn(move |_| {
                    let t0 = dita_obs::thread_cpu_time();
                    *slot = run(&mut batch.into_iter());
                    let dt = dita_obs::thread_cpu_time().saturating_sub(t0);
                    helper_ns.fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
                });
            }
        });
        slots.into_iter().flatten().collect()
    }

    /// CPU time the pool's threads have spent in this fan-out's maps so far —
    /// work the calling thread's own clock never saw. Zero when every map
    /// ran inline. The caller owes it to `dita_cluster::charge_compute` (or
    /// to whoever it reports its CPU cost to).
    #[must_use = "helper CPU time must be charged to the cost model"]
    pub fn helper_cpu(&self) -> Duration {
        Duration::from_nanos(self.helper_ns.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_keeps_input_order_for_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0, 1, 2, 3, 8] {
            let fan = FanOut::new(threads);
            assert_eq!(fan.map(items.iter(), |x| x * x + 1), serial, "{threads}");
            assert_eq!(fan.map(items.clone(), |x| x * x + 1), serial, "{threads}");
            assert!(fan.map(Vec::<u64>::new(), |x| x).is_empty());
            assert_eq!(fan.map(vec![7u64], |x| x + 1), vec![8]);
        }
    }

    #[test]
    fn map_init_shares_one_state_a_chunk() {
        // Each result is how many items its chunk's state had seen: inline
        // that is the item's position, on a pool the position in its chunk.
        let count = |seen: &mut usize, _item: usize| {
            *seen += 1;
            *seen
        };
        let inline = FanOut::new(1).map_init(0..64usize, || 0, count);
        assert_eq!(inline, (1..=64).collect::<Vec<_>>());
        let pooled = FanOut::new(2).map_init(0..64usize, || 0, count);
        let a_chunk: Vec<usize> = (1..=8).collect();
        assert_eq!(pooled, a_chunk.repeat(8));
    }

    #[test]
    fn inline_maps_burn_no_helper_cpu() {
        let fan = FanOut::new(1);
        assert_eq!(fan.threads(), 1);
        let _ = fan.map(0..100usize, |x| x + 1);
        assert_eq!(fan.helper_cpu(), Duration::ZERO);
        // One item never reaches the pool either.
        let fan = FanOut::new(4);
        assert_eq!(fan.threads(), 4);
        let _ = fan.map(vec![1u64], |x| x + 1);
        assert_eq!(fan.helper_cpu(), Duration::ZERO);
    }
}
