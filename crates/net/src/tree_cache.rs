//! A reference-counted cache of flood trees shared between concurrent
//! queries.
//!
//! One mobile user builds one query tree per period; `N` users whose
//! predicted pickup areas coincide would naively build `N` identical trees
//! over the same backbone — `N` floods, `N` copies of the CSR buffers, `N`
//! rounds of sleeping-node wake-ups. The [`TreeCache`] multiplexes them: a
//! tree is keyed by its construction inputs ([`TreeKey`]: root collector,
//! quantised area centre, flood radius), built once through the owned
//! [`FloodScratch`], and handed out as a copyable [`TreeHandle`] with a
//! reference count. The last release recycles the tree's buffers into the
//! scratch pool, so the steady state allocates nothing — exactly the
//! discipline the single-user world already follows, extended to sharing.
//!
//! Because the key captures *all* build inputs — the topology epoch and
//! whether a repair left crash victims out included — a cache hit returns a
//! tree byte-identical to the one a fresh build would produce; the naive
//! one-tree-per-query path therefore serves as a drop-in reference
//! implementation, and `tests/tree_cache_equivalence.rs` pins the
//! equivalence property-style.

use crate::flood::{FloodScratch, FloodTree};
use crate::neighbors::NeighborTable;
use crate::node::NodeId;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use wsn_geom::Point;

/// A [`TreeCache`] access through a handle whose tree is no longer alive.
///
/// Every fallible cache operation reports this instead of panicking, so a
/// long-lived service that is handed a stale or double-released handle by a
/// client can turn the bug into an error response instead of aborting the
/// whole daemon. The refcount discipline is still load-bearing — internal
/// simulation code treats this error as a programming bug (and the
/// equivalence suites assert it never happens there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeCacheError {
    slot: u32,
}

impl TreeCacheError {
    fn dead(handle: TreeHandle) -> Self {
        TreeCacheError { slot: handle.0 }
    }

    /// The slot index of the offending handle.
    pub fn slot(&self) -> u32 {
        self.slot
    }
}

impl fmt::Display for TreeCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tree handle {} is not alive (already fully released)",
            self.slot
        )
    }
}

impl Error for TreeCacheError {}

/// The complete set of inputs a cached flood tree was built from.
///
/// Two acquisitions share a tree exactly when their keys are equal: the same
/// root collector, bit-identical area centre coordinates and bit-identical
/// flood radius, in the same topology epoch, and both or neither a repair.
/// Centres are compared by their IEEE-754 bit patterns, so callers that want
/// spatial sharing must quantise the centre *before* building the key (the
/// stepped engine snaps pickup points to a lattice); the cache itself never
/// rounds, which is what keeps hits provably equivalent to fresh builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeKey {
    root: NodeId,
    center_x_bits: u64,
    center_y_bits: u64,
    radius_bits: u64,
    /// Topology epoch the tree was built in. A world whose backbone changes
    /// over time (node churn) bumps its epoch on every change, so trees
    /// flooded over the old topology are never shared with installs issued
    /// after it — the root/centre/radius triple alone no longer pins the tree
    /// content once the underlying neighbour table can differ.
    epoch: u32,
    /// Set for a tree rebuilt around crash victims, so it is never shared
    /// with an install. Repairs at different boundaries may mint equal keys:
    /// the stepped engine releases every repaired tree before its boundary ends.
    repair: bool,
}

impl TreeKey {
    /// Builds the key for a flood rooted at `root` spanning nodes within
    /// `radius_m` of `center`, in the initial topology epoch (0) and not a
    /// repair — the right key for static deployments.
    pub fn new(root: NodeId, center: Point, radius_m: f64) -> Self {
        TreeKey {
            root,
            center_x_bits: center.x.to_bits(),
            center_y_bits: center.y.to_bits(),
            radius_bits: radius_m.to_bits(),
            epoch: 0,
            repair: false,
        }
    }

    /// The same key re-tagged with a topology `epoch`; keys from different
    /// epochs never compare equal, so they never share a cached tree.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self
    }

    /// The same key for a flood that leaves out crash victims; it never
    /// compares equal to an install's key.
    #[must_use]
    pub fn with_repair(mut self) -> Self {
        self.repair = true;
        self
    }

    /// The topology epoch this key was issued in.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether the flood left crash victims out.
    pub fn is_repair(&self) -> bool {
        self.repair
    }

    /// The root (collector) node the tree is flooded from.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The area centre the key was built from.
    pub fn center(&self) -> Point {
        Point::new(
            f64::from_bits(self.center_x_bits),
            f64::from_bits(self.center_y_bits),
        )
    }

    /// The flood radius the key was built from, in metres.
    pub fn radius_m(&self) -> f64 {
        f64::from_bits(self.radius_bits)
    }
}

/// A counted reference to a tree living in a [`TreeCache`].
///
/// Handles are plain copyable indices: cheap to store in events and query
/// state. Every handle returned by [`TreeCache::acquire`] must eventually be
/// passed to [`TreeCache::release`] exactly once; the cache asserts against
/// stale handles in debug builds by checking slot occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeHandle(u32);

#[derive(Debug)]
struct CacheEntry {
    key: TreeKey,
    tree: FloodTree,
    refs: u32,
}

/// A slab of reference-counted flood trees keyed by their build inputs.
///
/// ```
/// use wsn_geom::{Point, Rect};
/// use wsn_net::{NeighborTable, NodeId, TreeCache, TreeKey};
///
/// let positions: Vec<Point> = (0..5).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect();
/// let table = NeighborTable::build(&positions, Rect::square(1000.0), 105.0);
/// let mut cache = TreeCache::new();
///
/// let key = TreeKey::new(NodeId(0), Point::new(0.0, 0.0), 500.0);
/// let (a, built_a) = cache.acquire(key, &table, |_| true);
/// let (b, built_b) = cache.acquire(key, &table, |_| true);
/// assert!(built_a && !built_b, "the second user shares the first tree");
/// assert_eq!(a, b);
/// assert_eq!(cache.refs(a), 2);
///
/// assert_eq!(cache.release(a), Ok(false));
/// assert_eq!(cache.release(b), Ok(true), "the last release frees the tree");
/// assert_eq!(cache.live_trees(), 0);
/// assert!(cache.release(b).is_err(), "a dead handle is an error, not a panic");
/// ```
#[derive(Debug, Default)]
pub struct TreeCache {
    slots: Vec<Option<CacheEntry>>,
    free: Vec<u32>,
    index: HashMap<TreeKey, u32>,
    scratch: FloodScratch,
    trees_built: u64,
    shared_hits: u64,
}

impl TreeCache {
    /// Creates an empty cache; buffers grow on first use.
    pub fn new() -> Self {
        TreeCache::default()
    }

    /// Returns a handle to the tree for `key`, building it (BFS flood of
    /// `member` nodes rooted at `key.root()`) only if no live tree with the
    /// same key exists. The boolean is `true` when this call built the tree
    /// and `false` when it joined an existing one.
    ///
    /// The `member` predicate is only consulted on a build; callers must
    /// derive it purely from the key (the stepped engine closes over the
    /// key's centre and radius), otherwise a hit could return a tree that a
    /// fresh build would not have produced.
    pub fn acquire(
        &mut self,
        key: TreeKey,
        neighbors: &NeighborTable,
        member: impl FnMut(NodeId) -> bool,
    ) -> (TreeHandle, bool) {
        if let Some(&slot) = self.index.get(&key) {
            if let Some(entry) = self.slots.get_mut(slot as usize).and_then(|s| s.as_mut()) {
                entry.refs += 1;
                self.shared_hits += 1;
                return (TreeHandle(slot), false);
            }
            // A stale index entry (a freed slot the map still points at)
            // would be a bookkeeping bug; drop it and rebuild rather than
            // panic, so one bad entry can't take down a resident service.
            self.index.remove(&key);
        }
        let tree = self.scratch.build(key.root(), neighbors, member);
        self.trees_built += 1;
        let entry = CacheEntry { key, tree, refs: 1 };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(entry);
                slot
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(key, slot);
        (TreeHandle(slot), true)
    }

    /// The tree behind `handle`.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeCacheError`] when the handle has already been fully
    /// released (or never came from this cache).
    pub fn tree(&self, handle: TreeHandle) -> Result<&FloodTree, TreeCacheError> {
        self.slots
            .get(handle.0 as usize)
            .and_then(|slot| slot.as_ref())
            .map(|e| &e.tree)
            .ok_or(TreeCacheError::dead(handle))
    }

    /// The key the tree behind `handle` was built from.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeCacheError`] when the handle has already been fully
    /// released (or never came from this cache).
    pub fn key(&self, handle: TreeHandle) -> Result<TreeKey, TreeCacheError> {
        self.slots
            .get(handle.0 as usize)
            .and_then(|slot| slot.as_ref())
            .map(|e| e.key)
            .ok_or(TreeCacheError::dead(handle))
    }

    /// Current reference count of the tree behind `handle` (0 for a slot
    /// that has been freed).
    pub fn refs(&self, handle: TreeHandle) -> u32 {
        self.slots
            .get(handle.0 as usize)
            .and_then(|slot| slot.as_ref())
            .map(|e| e.refs)
            .unwrap_or(0)
    }

    /// Drops one reference to the tree behind `handle`. Returns `Ok(true)`
    /// when this was the last reference: the tree is unmapped and its buffers
    /// are recycled for the next build.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeCacheError`] on a release through a dead handle (a
    /// double release). The refcount discipline is load-bearing for the
    /// sharing metrics, so a live tree is never corrupted: the offending
    /// release is simply refused, which lets a long-lived service answer a
    /// client's double-retire with an error instead of dying.
    pub fn release(&mut self, handle: TreeHandle) -> Result<bool, TreeCacheError> {
        let slot_ref = self
            .slots
            .get_mut(handle.0 as usize)
            .ok_or(TreeCacheError::dead(handle))?;
        let entry = slot_ref.as_mut().ok_or(TreeCacheError::dead(handle))?;
        entry.refs -= 1;
        if entry.refs > 0 {
            return Ok(false);
        }
        let entry = slot_ref.take().ok_or(TreeCacheError::dead(handle))?;
        self.index.remove(&entry.key);
        self.scratch.recycle(entry.tree);
        self.free.push(handle.0);
        Ok(true)
    }

    /// Number of distinct trees currently alive (reference count > 0).
    pub fn live_trees(&self) -> usize {
        self.index.len()
    }

    /// Total number of trees actually built (cache misses).
    pub fn trees_built(&self) -> u64 {
        self.trees_built
    }

    /// Total number of acquisitions served by an existing tree.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::Rect;

    fn line_table(n: usize) -> NeighborTable {
        let positions: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 100.0, 0.0)).collect();
        NeighborTable::build(&positions, Rect::square(2000.0), 105.0)
    }

    fn key(root: usize, cx: f64, r: f64) -> TreeKey {
        TreeKey::new(NodeId(root), Point::new(cx, 0.0), r)
    }

    #[test]
    fn identical_keys_share_one_tree() {
        let table = line_table(8);
        let mut cache = TreeCache::new();
        let (a, built_a) = cache.acquire(key(0, 100.0, 800.0), &table, |_| true);
        let (b, built_b) = cache.acquire(key(0, 100.0, 800.0), &table, |_| true);
        assert!(built_a);
        assert!(!built_b);
        assert_eq!(a, b);
        assert_eq!(cache.refs(a), 2);
        assert_eq!(cache.trees_built(), 1);
        assert_eq!(cache.shared_hits(), 1);
        assert_eq!(cache.live_trees(), 1);
    }

    #[test]
    fn distinct_keys_build_distinct_trees() {
        let table = line_table(8);
        let mut cache = TreeCache::new();
        let (a, _) = cache.acquire(key(0, 100.0, 800.0), &table, |_| true);
        // Same root, different radius bits: a different construction.
        let (b, built_b) = cache.acquire(key(0, 100.0, 300.0), &table, |n| {
            n.index() as f64 * 100.0 <= 400.0
        });
        assert!(built_b);
        assert_ne!(a, b);
        assert_eq!(cache.live_trees(), 2);
        assert!(cache.tree(a).unwrap().len() > cache.tree(b).unwrap().len());
    }

    #[test]
    fn release_frees_only_at_the_last_reference() {
        let table = line_table(6);
        let mut cache = TreeCache::new();
        let k = key(2, 200.0, 600.0);
        let (a, _) = cache.acquire(k, &table, |_| true);
        let (b, _) = cache.acquire(k, &table, |_| true);
        let (c, _) = cache.acquire(k, &table, |_| true);
        assert_eq!(cache.refs(a), 3);
        assert_eq!(cache.release(a), Ok(false));
        assert_eq!(cache.release(b), Ok(false));
        // Still readable through the remaining reference.
        assert_eq!(cache.tree(c).unwrap().root(), NodeId(2));
        assert_eq!(cache.release(c), Ok(true));
        assert_eq!(cache.live_trees(), 0);
        assert_eq!(cache.refs(c), 0);
    }

    #[test]
    fn freed_slots_are_reused_and_rebuilds_are_fresh() {
        let table = line_table(6);
        let mut cache = TreeCache::new();
        let (a, _) = cache.acquire(key(0, 0.0, 600.0), &table, |_| true);
        let tree_len = cache.tree(a).unwrap().len();
        cache.release(a).unwrap();
        // Re-acquiring after a full release is a fresh build into the
        // recycled slot, with identical content.
        let (b, built) = cache.acquire(key(0, 0.0, 600.0), &table, |_| true);
        assert!(built);
        assert_eq!(cache.trees_built(), 2);
        assert_eq!(cache.tree(b).unwrap().len(), tree_len);
        assert_eq!(cache.live_trees(), 1);
    }

    #[test]
    fn dead_handle_access_is_an_error_not_a_panic() {
        let table = line_table(4);
        let mut cache = TreeCache::new();
        let (a, _) = cache.acquire(key(0, 0.0, 500.0), &table, |_| true);
        assert_eq!(cache.release(a), Ok(true));
        // Every fallible path degrades to an error a daemon can answer with.
        let err = cache.release(a).unwrap_err();
        assert_eq!(err.slot(), 0);
        assert!(cache.tree(a).is_err());
        assert!(cache.key(a).is_err());
        assert_eq!(cache.refs(a), 0);
        assert!(!format!("{err}").is_empty());
        // A handle that never came from this cache is equally refused.
        assert!(cache.tree(TreeHandle(99)).is_err());
        // The cache stays fully usable after the error.
        let (b, built) = cache.acquire(key(0, 0.0, 500.0), &table, |_| true);
        assert!(built);
        assert_eq!(cache.refs(b), 1);
    }

    #[test]
    fn key_round_trips_its_inputs() {
        let k = TreeKey::new(NodeId(7), Point::new(123.25, -4.5), 255.0);
        assert_eq!(k.root(), NodeId(7));
        assert_eq!(k.center(), Point::new(123.25, -4.5));
        assert_eq!(k.radius_m(), 255.0);
        assert!(!k.is_repair() && k.with_repair().is_repair());
        assert_ne!(k.with_repair(), k, "a repair never meets an install");
    }
}
