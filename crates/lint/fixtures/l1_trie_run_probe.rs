// Known-bad fixture for rule L1 (worker-panic), trie scope. Never
// compiled; the fixture test lints it as `crates/index/src/trie.rs`, where
// the local join's run probe and the SoA single-query probe run on worker
// threads.

pub fn probe_rows(&self, src: &TrieIndex, rows: &[u32], emit: impl FnMut(u32, u32)) -> FilterStats {
    let first = rows.first().expect("a shipped set is never empty");
    self.probe_run(src, &rows[..1], *first, emit)
}

fn probe_run(&self, src: &TrieIndex, run: &[u32], first: u32, emit: impl FnMut(u32, u32)) {
    let frame = self.frames.last().unwrap();
    if *frame == 0 {
        unreachable!("the run is alive above the roots");
    }
}

pub fn probe_soa(&self, q: SoaView<'_>, emit: impl FnMut(u32)) -> FilterStats {
    let last = q.xs.last().unwrap();
    self.walk_query(q, *last, emit)
}

// Build-time code in the same file may assert its contract.
pub fn build(trajectories: Vec<Trajectory>) -> TrieIndex {
    let first = trajectories.first().expect("a partition is never empty");
    TrieIndex::of(first)
}
