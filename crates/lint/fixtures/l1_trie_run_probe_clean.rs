// Clean counterpart of `l1_trie_run_probe.rs`: the same functions with
// every fallible step handled. Never compiled; linted as
// `crates/index/src/trie.rs`.

pub fn probe_rows(&self, src: &TrieIndex, rows: &[u32], emit: impl FnMut(u32, u32)) -> FilterStats {
    let Some(&first) = rows.first() else {
        return FilterStats::default();
    };
    self.probe_run(src, &rows[..1], first, emit)
}

fn probe_run(&self, src: &TrieIndex, run: &[u32], first: u32, emit: impl FnMut(u32, u32)) {
    let frame = self.frames.last().copied().unwrap_or(0);
    debug_assert!(frame > 0, "the run is alive above the roots");
}

pub fn probe_soa(&self, q: SoaView<'_>, emit: impl FnMut(u32)) -> FilterStats {
    match q.xs.last() {
        Some(&last) => self.walk_query(q, last, emit),
        None => FilterStats::default(),
    }
}
