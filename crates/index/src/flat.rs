//! Succinct flat-array storage for the trie local index: the one encoding
//! the [`crate::trie`] is stored in.
//!
//! At the paper's scale (§7: tens of millions of trajectories per worker)
//! per-node and per-member heap allocations and duplicated coordinates, not
//! the tree logic, would cap how many trajectories fit in worker RAM — and,
//! one level down, the order of the arenas, not the tree logic, decides how
//! many cache lines a probe touches. So both halves of the index are
//! contiguous arenas:
//!
//! * [`FlatNodes`] — fixed-width [`NodeRec`] records, and beside them one
//!   subtree extent per node. Siblings are flattened next to each other and
//!   local ids are handed out in node order, so a record addresses its
//!   children and its members as two `(first, len)` ranges: there is no id
//!   array to chase.
//! * [`TrajStore`] — all member trajectories pooled into shared coordinate,
//!   indexing-point and pivot arenas with `u32` offset arrays, *in
//!   leaf order*: member `i + 1` of a node lies right behind member `i` in
//!   every arena, so a leaf's endpoint and pivot checks stream through
//!   `ips` and its surviving candidates sit next to each other in `xs`/`ys`
//!   for verification. The SoA coordinate arena **is** the canonical point
//!   storage: the index holds one copy of every coordinate, where an
//!   [`IndexedTrajectory`](crate::trie::IndexedTrajectory) holds two.
//!
//! Members are exposed as cheap [`EntryRef`] handles (a store pointer plus
//! an index) with the same accessors verification needs. All arenas are
//! built with exact capacities by one pass over the build output.

use crate::trie::Prepared;
use dita_trajectory::{Mbr, Point, SoaView, Trajectory, TrajectoryId};

/// One fixed-width trie node record: 64 bytes, one cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeRec {
    /// MBR of the members' indexing point at this node's depth.
    pub mbr: Mbr,
    /// Node id of the first child; the children are consecutive records.
    children_first: u32,
    /// Number of children (0 for leaves).
    children_len: u32,
    /// Local id of the first member stored at this node; the members are
    /// consecutive local ids.
    members_first: u32,
    /// Number of members stored at this node.
    members_len: u32,
    /// Shortest trajectory in this subtree (EDR length filter).
    pub min_len: u32,
    /// Longest trajectory in this subtree (EDR/LCSS filters).
    pub max_len: u32,
    /// Depth: 1 = first point, 2 = last point, 3.. = pivots.
    pub depth: u8,
}

// The sibling scan reads one cache line per node; the extents live beside
// the records, not in them.
const _: () = assert!(std::mem::size_of::<NodeRec>() == 64);

impl NodeRec {
    /// Node ids of this node's children.
    #[inline]
    pub fn children(&self) -> std::ops::Range<u32> {
        self.children_first..self.children_first + self.children_len
    }

    /// Local ids of the members stored at this node.
    #[inline]
    pub fn members(&self) -> std::ops::Range<u32> {
        self.members_first..self.members_first + self.members_len
    }
}

/// The node arena of one trie: the records, siblings next to each other,
/// and each node's *extent* — the union of the whole-trajectory MBRs of
/// every member in its subtree — in a parallel array indexed by node id, so
/// a record stays one cache line.
#[derive(Debug, Clone, Default)]
pub struct FlatNodes {
    recs: Vec<NodeRec>,
    extents: Vec<Mbr>,
}

impl FlatNodes {
    /// An empty arena with an exact capacity (so capacity-honest size
    /// accounting reports no slack).
    pub(crate) fn with_capacity(recs: usize) -> Self {
        FlatNodes {
            recs: Vec::with_capacity(recs),
            extents: Vec::with_capacity(recs),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// The record of node `id`.
    #[inline]
    pub fn rec(&self, id: u32) -> &NodeRec {
        &self.recs[id as usize]
    }

    /// The records of the consecutive nodes `ids`.
    #[inline]
    pub fn recs(&self, ids: std::ops::Range<u32>) -> &[NodeRec] {
        &self.recs[ids.start as usize..ids.end as usize]
    }

    /// The extent of node `id`: the union of the MBRs of every member in
    /// its subtree.
    #[inline]
    pub fn extent(&self, id: u32) -> &Mbr {
        &self.extents[id as usize]
    }

    /// Appends a childless node owning the local ids `members`, with its
    /// subtree's `extent`; its id is the arena's length before the call,
    /// its children are patched later via [`FlatNodes::set_children`].
    pub(crate) fn push(
        &mut self,
        mbr: Mbr,
        extent: Mbr,
        depth: u8,
        min_len: u32,
        max_len: u32,
        members: std::ops::Range<u32>,
    ) {
        self.extents.push(extent);
        self.recs.push(NodeRec {
            mbr,
            children_first: 0,
            children_len: 0,
            members_first: members.start,
            members_len: members.end - members.start,
            min_len,
            max_len,
            depth,
        });
    }

    /// Assigns the (already flattened, consecutive) children of node `id`.
    pub(crate) fn set_children(&mut self, id: u32, kids: std::ops::Range<u32>) {
        let rec = &mut self.recs[id as usize];
        rec.children_first = kids.start;
        rec.children_len = kids.end - kids.start;
    }

    /// Allocated heap bytes (capacity, not length — slack is real memory).
    pub fn size_bytes(&self) -> usize {
        self.recs.capacity() * std::mem::size_of::<NodeRec>()
            + self.extents.capacity() * std::mem::size_of::<Mbr>()
    }
}

/// All member trajectories of one trie, pooled into shared arenas.
///
/// For `n` members, every `*_off` array holds `n + 1` offsets; member `i`
/// owns the half-open arena range `off[i]..off[i + 1]`. Local ids follow
/// the order in which the trie's nodes own their members (see
/// [`crate::trie`]), not the build input's.
#[derive(Debug, Clone, Default)]
pub struct TrajStore {
    ids: Vec<TrajectoryId>,
    /// Offsets into `xs`/`ys` — the canonical (SoA) point storage.
    pt_off: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Offsets into `ips` (indexing points: first, last, pivots).
    ip_off: Vec<u32>,
    ips: Vec<Point>,
    /// Offsets into `pivs` (0-based pivot positions, ascending).
    piv_off: Vec<u32>,
    pivs: Vec<u32>,
    /// Whole-trajectory MBRs, one per member.
    mbrs: Vec<Mbr>,
}

impl TrajStore {
    /// Pools a build's rows into exact-capacity arenas, member `i` of the
    /// store being input row `order[i]`: its coordinates straight from the
    /// borrowed row, its indexing points, pivots and MBR from the build's
    /// preprocessing arenas. One pass writes each row once, in leaf order,
    /// and nothing else is copied; the bytes cannot depend on how many
    /// threads preprocessed the rows.
    ///
    /// # Panics
    /// Panics unless `order` has one in-range entry per row.
    pub(crate) fn pool(rows: &[&Trajectory], prep: &Prepared, order: &[u32]) -> Self {
        let n = rows.len();
        assert_eq!(order.len(), n, "one store slot per member");
        let total_pts: usize = rows.iter().map(|t| t.len()).sum();
        let (total_ips, total_pivs) = prep.totals();
        assert!(
            total_pts <= u32::MAX as usize,
            "trajectory arena exceeds u32 offsets"
        );
        let mut store = TrajStore {
            ids: Vec::with_capacity(n),
            pt_off: Vec::with_capacity(n + 1),
            xs: Vec::with_capacity(total_pts),
            ys: Vec::with_capacity(total_pts),
            ip_off: Vec::with_capacity(n + 1),
            ips: Vec::with_capacity(total_ips),
            piv_off: Vec::with_capacity(n + 1),
            pivs: Vec::with_capacity(total_pivs),
            mbrs: Vec::with_capacity(n),
        };
        store.pt_off.push(0);
        store.ip_off.push(0);
        store.piv_off.push(0);
        for &o in order {
            let (t, o) = (rows[o as usize], o as usize);
            store.ids.push(t.id);
            store.xs.extend(t.points().iter().map(|p| p.x));
            store.ys.extend(t.points().iter().map(|p| p.y));
            store.pt_off.push(store.xs.len() as u32);
            store.ips.extend_from_slice(prep.index_points(o));
            store.ip_off.push(store.ips.len() as u32);
            store.pivs.extend_from_slice(prep.pivots(o));
            store.piv_off.push(store.pivs.len() as u32);
            store.mbrs.push(*prep.mbr(o));
        }
        store
    }

    /// Number of stored trajectories.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Member `i` as a borrow handle.
    ///
    /// # Panics
    /// Panics when `i` is out of range (worker code uses
    /// [`TrajStore::try_entry`]).
    #[inline]
    pub fn entry(&self, i: usize) -> EntryRef<'_> {
        assert!(i < self.ids.len(), "trajectory id out of range");
        EntryRef { store: self, i }
    }

    /// [`TrajStore::entry`] without the panic.
    #[inline]
    pub fn try_entry(&self, i: usize) -> Option<EntryRef<'_>> {
        (i < self.ids.len()).then_some(EntryRef { store: self, i })
    }

    /// Iterates over all members in id order.
    pub fn iter(&self) -> impl Iterator<Item = EntryRef<'_>> {
        (0..self.ids.len()).map(move |i| EntryRef { store: self, i })
    }

    /// Allocated heap bytes of every arena (capacity-honest).
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<TrajectoryId>()
            + self.pt_off.capacity() * size_of::<u32>()
            + (self.xs.capacity() + self.ys.capacity()) * size_of::<f64>()
            + self.ip_off.capacity() * size_of::<u32>()
            + self.ips.capacity() * size_of::<Point>()
            + self.piv_off.capacity() * size_of::<u32>()
            + self.pivs.capacity() * size_of::<u32>()
            + self.mbrs.capacity() * size_of::<Mbr>()
    }

    /// The bytes holding raw trajectory payload (ids + coordinates) — the
    /// part [`crate::trie::TrieIndex::index_size_bytes`] excludes, matching
    /// what [`Trajectory::size_bytes`] prices for the same rows.
    pub fn data_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<TrajectoryId>()
            + (self.xs.capacity() + self.ys.capacity()) * std::mem::size_of::<f64>()
    }

    #[inline]
    fn pt_range(&self, i: usize) -> std::ops::Range<usize> {
        self.pt_off[i] as usize..self.pt_off[i + 1] as usize
    }
}

/// A borrowed member of a [`TrajStore`]: the flat layout's stand-in for
/// `&IndexedTrajectory`. Copy-cheap (pointer + index); accessors return
/// slices borrowed from the shared arenas with the store's lifetime.
#[derive(Debug, Clone, Copy)]
pub struct EntryRef<'a> {
    store: &'a TrajStore,
    i: usize,
}

impl<'a> EntryRef<'a> {
    /// The dataset-unique trajectory id.
    #[inline]
    pub fn id(&self) -> TrajectoryId {
        self.store.ids[self.i]
    }

    /// Number of points `m`.
    #[inline]
    pub fn len(&self) -> usize {
        let r = self.store.pt_range(self.i);
        r.end - r.start
    }

    /// Always `false`: construction rejects empty trajectories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The point sequence as a structure-of-arrays view — the input type of
    /// the `dita-distance` kernels, borrowed straight from the arena.
    #[inline]
    pub fn soa(&self) -> SoaView<'a> {
        let r = self.store.pt_range(self.i);
        SoaView {
            xs: &self.store.xs[r.clone()],
            ys: &self.store.ys[r],
        }
    }

    /// Point `j` (0-based) as an AoS [`Point`].
    #[inline]
    pub fn point(&self, j: usize) -> Point {
        let s = self.store.pt_off[self.i] as usize;
        Point::new(self.store.xs[s + j], self.store.ys[s + j])
    }

    /// First point `t_1`.
    #[inline]
    pub fn first(&self) -> Point {
        self.point(0)
    }

    /// Last point `t_m`.
    #[inline]
    pub fn last(&self) -> Point {
        self.point(self.len() - 1)
    }

    /// Indexing points: first, last (when distinct), then pivot points.
    #[inline]
    pub fn index_points(&self) -> &'a [Point] {
        let r = self.store.ip_off[self.i] as usize..self.store.ip_off[self.i + 1] as usize;
        &self.store.ips[r]
    }

    /// 0-based pivot positions, ascending, strictly interior.
    #[inline]
    pub fn pivots(&self) -> &'a [u32] {
        let r = self.store.piv_off[self.i] as usize..self.store.piv_off[self.i + 1] as usize;
        &self.store.pivs[r]
    }

    /// Whole-trajectory MBR (Lemma 5.4 filtering).
    #[inline]
    pub fn mbr(&self) -> &'a Mbr {
        &self.store.mbrs[self.i]
    }

    /// Shipment price of this trajectory: same semantics as
    /// [`Trajectory::size_bytes`] (id + raw points), so the join planner's
    /// network cost model is unchanged by the flat layout.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<TrajectoryId>() + self.len() * std::mem::size_of::<Point>()
    }

    /// Materializes the points as an AoS vector (cold paths: compaction,
    /// flush).
    pub fn points_vec(&self) -> Vec<Point> {
        let v = self.soa();
        (0..v.len()).map(|j| Point::new(v.xs[j], v.ys[j])).collect()
    }

    /// Materializes an owned [`Trajectory`] (compaction / flush paths).
    pub fn to_trajectory(&self) -> Trajectory {
        Trajectory::new(self.id(), self.points_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pivot::{select_pivots, PivotStrategy};
    use dita_trajectory::trajectory::figure1_trajectories;

    /// The Figure 1 trajectories pooled so that member `i` is input row
    /// `order[i]`.
    fn store_in(order: &[u32]) -> TrajStore {
        let ts = figure1_trajectories();
        let rows: Vec<&Trajectory> = ts.iter().collect();
        let prep = Prepared::of(&rows, 2, PivotStrategy::NeighborDistance);
        TrajStore::pool(&rows, &prep, order)
    }

    fn store() -> TrajStore {
        store_in(&[0, 1, 2, 3, 4])
    }

    #[test]
    fn entries_round_trip_the_source() {
        let ts = figure1_trajectories();
        let s = store();
        assert_eq!(s.len(), ts.len());
        for (e, t) in s.iter().zip(&ts) {
            assert_eq!(e.id(), t.id);
            assert_eq!(e.len(), t.len());
            assert_eq!(e.first(), *t.first());
            assert_eq!(e.last(), *t.last());
            assert_eq!(e.points_vec(), t.points());
            assert_eq!(e.to_trajectory(), *t);
            assert_eq!(e.size_bytes(), t.size_bytes());
            assert_eq!(*e.mbr(), t.mbr());
        }
    }

    /// Each entry's pivots are `select_pivots`' and its indexing points
    /// are first, last, then the pivot points.
    #[test]
    fn entry_artifacts_match_selected_pivots() {
        let ts = figure1_trajectories();
        let s = store();
        for (i, t) in ts.iter().enumerate() {
            let pivots = select_pivots(t, 2, PivotStrategy::NeighborDistance);
            let mut ips = vec![*t.first(), *t.last()];
            ips.extend(pivots.iter().map(|&p| t.points()[p]));
            let e = s.entry(i);
            assert_eq!(e.index_points(), &ips[..]);
            let pivs: Vec<u32> = pivots.iter().map(|&p| p as u32).collect();
            assert_eq!(e.pivots(), &pivs[..]);
        }
    }

    #[test]
    fn pooling_follows_the_order_vector() {
        let ts = figure1_trajectories();
        let order = [3u32, 0, 4, 2, 1];
        let s = store_in(&order);
        let plain = store();
        for (e, &o) in s.iter().zip(&order) {
            let src = plain.entry(o as usize);
            assert_eq!(e.to_trajectory(), ts[o as usize]);
            assert_eq!(e.index_points(), src.index_points());
            assert_eq!(e.pivots(), src.pivots());
            assert_eq!(e.mbr(), src.mbr());
        }
        assert_eq!(s.size_bytes(), plain.size_bytes());
    }

    #[test]
    fn try_entry_bounds_checked() {
        let s = store();
        assert!(s.try_entry(s.len()).is_none());
        assert_eq!(s.try_entry(0).map(|e| e.id()), Some(1));
    }

    #[test]
    fn store_pools_exactly_one_coordinate_copy() {
        let ts = figure1_trajectories();
        let total: usize = ts.iter().map(|t| t.len()).sum();
        let s = store();
        // Coordinate arena bytes = one f64 pair per source point, where an
        // `IndexedTrajectory` holds each point twice (AoS + SoA copy).
        assert_eq!(
            s.data_bytes(),
            ts.len() * 8 + total * 2 * std::mem::size_of::<f64>()
        );
        assert!(s.size_bytes() > s.data_bytes());
    }
}
