//! The reference pointer-rich trie encoding: one heap `Vec` per node for
//! children and members, one [`IndexedTrajectory`] per stored member.
//!
//! This is the layout [`crate::trie::TrieIndex`] used before the succinct
//! flat re-encoding ([`crate::flat`]). It is kept — built from the *same*
//! deterministic pending tree with the *same* local ids and probed through
//! the *same* shared [`crate::trie::node_admits`] /
//! [`crate::trie::member_admits`] predicates — as the reference the flat
//! layout is held to:
//!
//! 1. **Parity gates**: the flat probe must emit byte-identical candidate
//!    sets and [`FilterStats`] funnels, at no more than a third of this
//!    layout's index bytes (see `tests/flat_parity.rs`).
//! 2. **The other arm** of the criterion `trie-probe` flat-vs-pointer
//!    bench (`crates/bench/benches/index.rs`).
//!
//! It is not wired into the cluster path and takes no part in worker
//! execution.

use crate::trie::{
    build_pending, member_admits, node_admits, FilterStats, IndexedTrajectory, PendingNode,
    ProbeScratch, TrieConfig, Walk,
};
use dita_distance::DistanceFunction;
use dita_trajectory::{Mbr, Point, Trajectory};

/// One trie node in the pointer-rich encoding: per-node heap vectors for
/// the child and member id lists.
#[derive(Debug, Clone)]
pub struct PointerNode {
    /// MBR of the members' indexing point at this node's level.
    pub mbr: Mbr,
    /// 1-based trie level.
    pub depth: u8,
    /// Arena ids of the child nodes.
    pub children: Vec<u32>,
    /// Local ids of the trajectories stored at this node.
    pub members: Vec<u32>,
    /// Maximum member length in the subtree.
    pub max_len: u32,
    /// Minimum member length in the subtree.
    pub min_len: u32,
}

/// A trie index in the pointer-rich reference encoding.
#[derive(Debug, Clone)]
pub struct PointerTrie {
    config: TrieConfig,
    nodes: Vec<PointerNode>,
    roots: Vec<u32>,
    data: Vec<IndexedTrajectory>,
}

/// Flattens a pending subtree into the node vector in the same DFS
/// preorder as the flat encoding, returning the root's id.
fn flatten(nodes: &mut Vec<PointerNode>, pending: PendingNode) -> u32 {
    let id = nodes.len() as u32;
    nodes.push(PointerNode {
        mbr: pending.mbr,
        depth: pending.depth,
        children: Vec::new(),
        members: pending.members.collect(),
        max_len: pending.max_len,
        min_len: pending.min_len,
    });
    let kids: Vec<u32> = pending
        .children
        .into_iter()
        .map(|c| flatten(nodes, c))
        .collect();
    nodes[id as usize].children = kids;
    id
}

impl PointerTrie {
    /// Builds the reference encoding over a partition's trajectories from
    /// the same deterministic pending tree as [`crate::trie::TrieIndex`].
    pub fn build(trajectories: Vec<Trajectory>, config: TrieConfig) -> Self {
        let (data, order, pending, _helper) = build_pending(trajectories, &config);
        // Members are owned one by one here, so following the order vector
        // means moving them into local-id order.
        let mut data: Vec<Option<IndexedTrajectory>> = data.into_iter().map(Some).collect();
        let data: Vec<IndexedTrajectory> = order
            .iter()
            .map(|&o| data[o as usize].take().expect("order is a permutation"))
            .collect();
        let mut nodes = Vec::new();
        let roots: Vec<u32> = pending
            .into_iter()
            .map(|p| flatten(&mut nodes, p))
            .collect();
        PointerTrie {
            config,
            nodes,
            roots,
            data,
        }
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &TrieConfig {
        &self.config
    }

    /// Number of indexed trajectories.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when no trajectories are indexed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The stored members, in local-id order.
    pub fn data(&self) -> &[IndexedTrajectory] {
        &self.data
    }

    /// Allocated heap size of the index structures in bytes (capacity, not
    /// length), excluding the raw trajectory payload — the pointer-encoding
    /// counterpart of [`crate::trie::TrieIndex::index_size_bytes`].
    pub fn index_size_bytes(&self) -> usize {
        let u32s = std::mem::size_of::<u32>();
        let nodes: usize = self.nodes.capacity() * std::mem::size_of::<PointerNode>()
            + self
                .nodes
                .iter()
                .map(|n| (n.children.capacity() + n.members.capacity()) * u32s)
                .sum::<usize>();
        let aux: usize = self
            .data
            .iter()
            .map(|d| {
                d.pivots.capacity() * std::mem::size_of::<usize>()
                    + d.index_points.capacity() * std::mem::size_of::<Point>()
                    + std::mem::size_of::<Mbr>()
                    + d.soa.size_bytes()
            })
            .sum();
        nodes + self.roots.capacity() * u32s + aux
    }

    /// Total allocated size including the clustered trajectory payload.
    pub fn size_bytes(&self) -> usize {
        self.index_size_bytes() + self.data.iter().map(|d| d.size_bytes).sum::<usize>()
    }

    /// The filter probe, byte-for-byte equivalent to
    /// [`crate::trie::TrieIndex::candidates`].
    pub fn candidates(&self, q: &[Point], tau: f64, func: &DistanceFunction) -> Vec<u32> {
        self.candidates_with_stats(q, tau, func).0
    }

    /// Like [`PointerTrie::candidates`] but also reports the filter funnel.
    pub fn candidates_with_stats(
        &self,
        q: &[Point],
        tau: f64,
        func: &DistanceFunction,
    ) -> (Vec<u32>, FilterStats) {
        let mut scratch = ProbeScratch::new();
        self.candidates_with_scratch(q, tau, func, &mut scratch)
    }

    /// [`PointerTrie::candidates_with_stats`] with a caller-held
    /// [`ProbeScratch`].
    pub fn candidates_with_scratch(
        &self,
        q: &[Point],
        tau: f64,
        func: &DistanceFunction,
        scratch: &mut ProbeScratch,
    ) -> (Vec<u32>, FilterStats) {
        let mut stats = FilterStats::default();
        let mut out = Vec::new();
        self.probe(q, tau, func, &mut stats, scratch, |m| out.push(m));
        out.sort_unstable();
        out.dedup();
        (out, stats)
    }

    /// Counting probe, equivalent to
    /// [`crate::trie::TrieIndex::candidate_count`].
    pub fn candidate_count(
        &self,
        q: &[Point],
        tau: f64,
        func: &DistanceFunction,
        scratch: &mut ProbeScratch,
    ) -> usize {
        let mut stats = FilterStats::default();
        let mut count = 0usize;
        self.probe(q, tau, func, &mut stats, scratch, |_| count += 1);
        count
    }

    /// The pointer-layout traversal: same shared node/member predicates as
    /// the flat probe, walking per-node `Vec`s instead of id ranges.
    fn probe<F: FnMut(u32)>(
        &self,
        q: &[Point],
        tau: f64,
        func: &DistanceFunction,
        stats: &mut FilterStats,
        scratch: &mut ProbeScratch,
        mut emit: F,
    ) {
        let (stack, query) = scratch.begin(q);
        if q.is_empty() || tau < 0.0 {
            return;
        }
        let Some(walk) = Walk::of(func) else {
            for id in 0..self.data.len() as u32 {
                emit(id);
            }
            return;
        };
        let edr = walk.is_edr();
        let mut level = (&self.roots[..], tau, 0usize);
        loop {
            let (ids, budget, suffix) = level;
            for &id in ids {
                let node = &self.nodes[id as usize];
                if let Some((budget, suffix)) = node_admits(
                    &node.mbr,
                    node.depth,
                    node.min_len,
                    node.max_len,
                    query,
                    tau,
                    budget,
                    suffix,
                    &walk,
                    stats,
                ) {
                    stack.push((id, budget, suffix));
                }
            }
            let Some((node_id, budget, suffix)) = stack.pop() else {
                return;
            };
            let node = &self.nodes[node_id as usize];
            for &m in &node.members {
                stats.members_checked += 1;
                let it = &self.data[m as usize];
                if edr && dita_distance::bounds::length_bound_edr(it.traj.len(), q.len(), tau) {
                    stats.members_pruned_length += 1;
                    continue;
                }
                let admits = member_admits(query, tau, &walk, &it.index_points, || {
                    (it.traj.len(), it.pivots.iter().copied(), it.soa.view())
                });
                if admits {
                    emit(m);
                } else {
                    stats.members_pruned_opamd += 1;
                }
            }
            level = (&node.children[..], budget, suffix);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pivot::PivotStrategy;
    use dita_trajectory::trajectory::figure1_trajectories;

    fn fig1_config() -> TrieConfig {
        TrieConfig {
            k: 2,
            nl: 2,
            leaf_capacity: 0,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 2.0,
            ..TrieConfig::default()
        }
    }

    #[test]
    fn builds_and_probes() {
        let ts = figure1_trajectories();
        let trie = PointerTrie::build(ts.clone(), fig1_config());
        assert_eq!(trie.len(), 5);
        assert!(!trie.is_empty());
        assert!(trie.size_bytes() > trie.index_size_bytes());
        let cands = trie.candidates(ts[3].points(), 3.0, &DistanceFunction::Dtw);
        let ids: Vec<u64> = cands
            .iter()
            .map(|&c| trie.data()[c as usize].traj.id)
            .collect();
        assert_eq!(ids, vec![4]);
    }
}
