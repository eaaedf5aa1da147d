//! The coordinator's lease table: which node holds which tile, what is
//! still queued, and what has been merged.
//!
//! The table is pure bookkeeping — no I/O, no time — guarded by one mutex
//! in the coordinator, so every transition is atomic with respect to the
//! node threads. The `vendor/interleave` model in `tests/interleave.rs`
//! mirrors exactly this structure and checks its two safety invariants
//! under exhaustive schedule exploration: **no tile is merged twice** and
//! **no lease is lost** when a node is quarantined mid-steal.
//!
//! Scheduling policy, in claim order (DESIGN.md §12):
//!
//! 0. the node's granted first lease: [`LeaseTable::grant_first_leases`]
//!    leases each node the front of its own shard before any node claims,
//!    so no node can lose its first tile to a faster thief;
//! 1. re-dispatched tiles from failed nodes (`requeue`) — highest urgency
//!    because they are the oldest unfinished work;
//! 2. the node's own shard, front to back;
//! 3. **steal** from the longest remaining shard, back to front, so the
//!    victim's locality at its front is preserved.
//!
//! Otherwise the node waits: an in-flight tile is never leased twice,
//! since `run_cluster` joins every in-flight request anyway and a
//! duplicate would only occupy a device and delay that join. `complete`
//! still keeps only the first delivery of a tile, because the original
//! holder of a re-dispatched tile may yet answer late.
//!
//! [`replay_makespan`] drives this same table on a modelled clock: it is
//! the cluster's modelled makespan, so the modelled schedule follows the
//! claim policy above by construction.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What `next_for` hands a node asking for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextLease {
    /// A tile to execute.
    Tile {
        /// The tile's index in the job's global tiling.
        tile: usize,
        /// Whether the tile was stolen from another node's shard.
        stolen: bool,
    },
    /// Nothing claimable right now, but leases are in flight — wait for a
    /// completion or a re-dispatch.
    Wait,
    /// Every tile is merged; the node can disconnect.
    Finished,
}

/// What a completed tile execution turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// First result for the tile: merge it.
    Merged,
    /// A duplicate (a re-dispatched tile whose original holder answered
    /// after all): drop it.
    Duplicate,
}

/// The lease table (see the module docs for the scheduling policy).
#[derive(Debug)]
pub struct LeaseTable {
    shards: Vec<VecDeque<usize>>,
    requeue: VecDeque<usize>,
    /// tile -> the node holding its lease.
    leased: BTreeMap<usize, usize>,
    /// node -> its granted first lease, not yet handed out by `next_for`.
    granted: Vec<Option<usize>>,
    done: BTreeSet<usize>,
    total: usize,
    steals: u64,
    redispatches: u64,
    duplicates_dropped: u64,
}

impl LeaseTable {
    /// Shard tiles `0..total` across `nodes` contiguous shards of
    /// near-equal size (earlier shards get the remainder).
    pub fn new(total: usize, nodes: usize) -> LeaseTable {
        let nodes = nodes.max(1);
        let base = total / nodes;
        let rem = total % nodes;
        let mut shards = Vec::with_capacity(nodes);
        let mut next = 0usize;
        for node in 0..nodes {
            let len = base + usize::from(node < rem);
            shards.push((next..next + len).collect());
            next += len;
        }
        LeaseTable {
            shards,
            requeue: VecDeque::new(),
            leased: BTreeMap::new(),
            granted: vec![None; nodes],
            done: BTreeSet::new(),
            total,
            steals: 0,
            redispatches: 0,
            duplicates_dropped: 0,
        }
    }

    /// Claim the next tile for `node` (see the module docs for the
    /// policy).
    pub fn next_for(&mut self, node: usize) -> NextLease {
        if self.done.len() == self.total {
            return NextLease::Finished;
        }
        if let Some(tile) = self.granted[node].take() {
            return NextLease::Tile {
                tile,
                stolen: false,
            };
        }
        if let Some(tile) = self.requeue.pop_front() {
            self.lease(node, tile);
            return NextLease::Tile {
                tile,
                stolen: false,
            };
        }
        if let Some(tile) = self.shards[node].pop_front() {
            self.lease(node, tile);
            return NextLease::Tile {
                tile,
                stolen: false,
            };
        }
        // Steal from the longest remaining shard (ties: lowest node index,
        // for determinism of the decision given the same table state).
        let victim = (0..self.shards.len())
            .filter(|&j| j != node && !self.shards[j].is_empty())
            .max_by_key(|&j| (self.shards[j].len(), usize::MAX - j));
        if let Some(victim) = victim {
            if let Some(tile) = self.shards[victim].pop_back() {
                self.steals += 1;
                self.lease(node, tile);
                return NextLease::Tile { tile, stolen: true };
            }
        }
        NextLease::Wait
    }

    /// Lease the front of every node's own shard to that node — the tile
    /// each node claims first anyway — before any node can steal; the
    /// node's next `next_for` hands it out.
    ///
    /// `run_cluster` grants these before any node thread claims, so every
    /// node with a shard makes its first request however the threads are
    /// scheduled, and a fault planned for request 0 always fires.
    pub fn grant_first_leases(&mut self) {
        for node in 0..self.shards.len() {
            if let Some(tile) = self.shards[node].pop_front() {
                self.lease(node, tile);
                self.granted[node] = Some(tile);
            }
        }
    }

    fn lease(&mut self, node: usize, tile: usize) {
        self.leased.insert(tile, node);
    }

    /// Record that `node` delivered `tile`. The first delivery wins and
    /// retires the tile's lease; a later one (the original holder of a
    /// re-dispatched tile answering late) is reported as a duplicate for
    /// the caller to drop.
    pub fn complete(&mut self, node: usize, tile: usize) -> Completion {
        let first = self.done.insert(tile);
        if first || self.leased.get(&tile) == Some(&node) {
            self.leased.remove(&tile);
        }
        if first {
            Completion::Merged
        } else {
            self.duplicates_dropped += 1;
            Completion::Duplicate
        }
    }

    /// Record that `node`'s attempt at `tile` failed. If `node` holds the
    /// tile's lease and the tile is not merged, the lease is released and
    /// the tile queued for re-dispatch.
    pub fn fail(&mut self, node: usize, tile: usize) {
        if self.leased.get(&tile) == Some(&node) {
            self.leased.remove(&tile);
            if !self.done.contains(&tile) {
                self.requeue.push_back(tile);
                self.redispatches += 1;
            }
        }
    }

    /// Remove `node` from the cluster: release every lease it holds (each
    /// re-dispatched via [`LeaseTable::fail`] semantics, an unclaimed
    /// granted first lease included) and move its unclaimed shard to the
    /// re-dispatch queue.
    pub fn quarantine(&mut self, node: usize) {
        self.granted[node] = None;
        let held: Vec<usize> = self
            .leased
            .iter()
            .filter(|&(_, &holder)| holder == node)
            .map(|(&tile, _)| tile)
            .collect();
        for tile in held {
            self.fail(node, tile);
        }
        while let Some(tile) = self.shards[node].pop_front() {
            self.requeue.push_back(tile);
        }
    }

    /// Tiles merged so far.
    pub fn merged(&self) -> usize {
        self.done.len()
    }

    /// Total tiles in the job.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Tiles stolen across shards.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// Tiles queued for re-dispatch after a failed lease.
    pub fn redispatches(&self) -> u64 {
        self.redispatches
    }

    /// Duplicate results dropped by the first-delivery-wins rule.
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }
}

/// The modelled makespan of a fault-free run of `tile_seconds.len()`
/// tiles on `nodes` nodes: the lease protocol replayed on a modelled
/// clock, charging each tile its device seconds.
///
/// A fresh [`LeaseTable`] grants the first leases and every node's clock
/// starts at 0. Then, as a discrete-event loop, the node whose clock frees
/// first (ties: the lowest node index) completes its tile and claims its
/// next one through [`LeaseTable::next_for`]. Nothing fails in the replay,
/// so a node told to wait has nothing left to claim and stays idle.
/// Returns the busiest node's clock.
pub fn replay_makespan(tile_seconds: &[f64], nodes: usize) -> f64 {
    let nodes = nodes.max(1);
    let mut table = LeaseTable::new(tile_seconds.len(), nodes);
    table.grant_first_leases();
    let mut clock = vec![0.0_f64; nodes];
    let mut holding: Vec<Option<usize>> = (0..nodes)
        .map(|node| replay_claim(&mut table, node, tile_seconds, &mut clock[node]))
        .collect();
    while let Some(node) = (0..nodes)
        .filter(|&n| holding[n].is_some())
        .min_by(|&a, &b| clock[a].total_cmp(&clock[b]))
    {
        if let Some(tile) = holding[node].take() {
            table.complete(node, tile);
        }
        holding[node] = replay_claim(&mut table, node, tile_seconds, &mut clock[node]);
    }
    clock.into_iter().fold(0.0, f64::max)
}

/// `node` claims its next tile in the replay, and its clock pays for it.
fn replay_claim(
    table: &mut LeaseTable,
    node: usize,
    tile_seconds: &[f64],
    clock: &mut f64,
) -> Option<usize> {
    match table.next_for(node) {
        NextLease::Tile { tile, .. } => {
            *clock += tile_seconds[tile];
            Some(tile)
        }
        NextLease::Wait | NextLease::Finished => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_near_equal_shards() {
        let mut table = LeaseTable::new(8, 3);
        // Shards: [0,1,2], [3,4,5], [6,7].
        assert_eq!(
            table.next_for(0),
            NextLease::Tile {
                tile: 0,
                stolen: false
            }
        );
        assert_eq!(
            table.next_for(2),
            NextLease::Tile {
                tile: 6,
                stolen: false
            }
        );
    }

    #[test]
    fn drained_node_steals_from_longest_shard() {
        let mut table = LeaseTable::new(6, 2);
        // Node 0 drains its shard [0,1,2].
        for expect in 0..3 {
            match table.next_for(0) {
                NextLease::Tile { tile, stolen, .. } => {
                    assert_eq!(tile, expect);
                    assert!(!stolen);
                    table.complete(0, tile);
                }
                other => panic!("expected a tile, got {other:?}"),
            }
        }
        // Node 1 untouched: node 0 now steals from the back of [3,4,5].
        match table.next_for(0) {
            NextLease::Tile { tile, stolen, .. } => {
                assert_eq!(tile, 5);
                assert!(stolen);
            }
            other => panic!("expected a steal, got {other:?}"),
        }
        assert_eq!(table.steals(), 1);
    }

    #[test]
    fn first_completion_wins_duplicates_dropped() {
        let mut table = LeaseTable::new(2, 2);
        let NextLease::Tile { tile, .. } = table.next_for(0) else {
            panic!("no tile");
        };
        let NextLease::Tile { tile: own, .. } = table.next_for(1) else {
            panic!("no tile");
        };
        assert_eq!(table.complete(1, own), Completion::Merged);
        // Node 1 has drained its shard; node 0's in-flight tile is not
        // leased a second time.
        assert_eq!(table.next_for(1), NextLease::Wait);
        // Node 0's request fails, so node 1 takes the tile from the
        // re-dispatch queue and delivers it first.
        table.fail(0, tile);
        assert_eq!(table.redispatches(), 1);
        assert_eq!(
            table.next_for(1),
            NextLease::Tile {
                tile,
                stolen: false
            }
        );
        assert_eq!(table.complete(1, tile), Completion::Merged);
        // Node 0's late answer for the same tile is dropped.
        assert_eq!(table.complete(0, tile), Completion::Duplicate);
        assert_eq!(table.duplicates_dropped(), 1);
        assert_eq!(table.merged(), 2);
        assert_eq!(table.next_for(0), NextLease::Finished);
    }

    #[test]
    fn failed_lease_is_redispatched_and_quarantine_drains_the_shard() {
        let mut table = LeaseTable::new(4, 2);
        let NextLease::Tile { tile, .. } = table.next_for(1) else {
            panic!("no tile");
        };
        assert_eq!(tile, 2);
        table.fail(1, tile);
        table.quarantine(1);
        assert_eq!(table.redispatches(), 1);
        // Node 0 now sees the re-dispatch queue first (the failed tile,
        // then the quarantined node's drained shard), then its own shard.
        let mut order = Vec::new();
        loop {
            match table.next_for(0) {
                NextLease::Tile { tile, .. } => {
                    order.push(tile);
                    table.complete(0, tile);
                }
                NextLease::Finished => break,
                NextLease::Wait => panic!("nothing should be in flight"),
            }
        }
        assert_eq!(order, vec![2, 3, 0, 1]);
    }

    #[test]
    fn first_leases_take_each_shard_front_before_any_steal() {
        let mut table = LeaseTable::new(5, 4);
        // Shards: [0,1], [2], [3], [4].
        table.grant_first_leases();
        // Node 1 gets its granted tile first. Its shard is then empty, so
        // it steals the only unleased tile, never another node's grant.
        assert_eq!(table.next_for(1), own(2));
        table.complete(1, 2);
        assert_eq!(
            table.next_for(1),
            NextLease::Tile {
                tile: 1,
                stolen: true
            }
        );
        assert_eq!(table.next_for(1), NextLease::Wait);
        assert_eq!(table.next_for(0), own(0));
        assert_eq!(table.next_for(0), NextLease::Wait);
        // A node quarantined before it claimed its grant releases it for
        // re-dispatch; the other grants stay with their nodes.
        table.quarantine(3);
        assert_eq!(table.redispatches(), 1);
        assert_eq!(table.next_for(0), own(4));
        assert_eq!(table.next_for(2), own(3));
        // A node with an empty shard gets no first lease.
        let mut small = LeaseTable::new(1, 2);
        small.grant_first_leases();
        assert_eq!(small.next_for(1), NextLease::Wait);
        assert_eq!(small.next_for(0), own(0));
    }

    #[test]
    fn wait_only_while_leases_are_in_flight() {
        let mut table = LeaseTable::new(1, 2);
        let NextLease::Tile { tile, .. } = table.next_for(0) else {
            panic!("no tile");
        };
        assert_eq!(table.next_for(1), NextLease::Wait);
        table.complete(0, tile);
        assert_eq!(table.next_for(1), NextLease::Finished);
    }

    #[test]
    fn replay_splits_equal_tiles_as_ceil_t_over_n() {
        let c = 0.25;
        for (tiles, nodes) in [(12_usize, 3), (8, 3), (7, 2), (5, 8), (1, 4)] {
            let expect = tiles.div_ceil(nodes) as f64 * c;
            assert_eq!(
                replay_makespan(&vec![c; tiles], nodes).to_bits(),
                expect.to_bits(),
                "{tiles} tiles on {nodes} nodes"
            );
        }
    }

    #[test]
    fn replay_on_one_node_sums_every_tile() {
        let costs = [0.5, 0.125, 2.0, 0.25, 1.0];
        assert_eq!(replay_makespan(&costs, 1), costs.iter().sum::<f64>());
        // Zero nodes is clamped to one, as `LeaseTable::new` does.
        assert_eq!(replay_makespan(&costs, 0), costs.iter().sum::<f64>());
    }

    #[test]
    fn replay_of_zero_tiles_is_zero() {
        assert_eq!(replay_makespan(&[], 3), 0.0);
    }

    #[test]
    fn replay_steals_from_the_back_of_the_expensive_shard() {
        // Shards: node 0 gets [0,1,2] (cheap), node 1 gets [3,4,5]
        // (expensive). Node 0 drains its shard at t = 3 while node 1 is
        // still on tile 3 (until t = 4), so node 0 steals from the back of
        // shard 1: tile 5, done at t = 3 + 6 = 9. Node 1 runs tiles 3 and
        // 4 to t = 8. Stealing tile 4 instead would end at 10 (node 1 runs
        // 3 then 5), and no steal at 14.
        let costs = [1.0, 1.0, 1.0, 4.0, 4.0, 6.0];
        let mut table = LeaseTable::new(costs.len(), 2);
        table.grant_first_leases();
        assert_eq!(table.next_for(1), own(3));
        for tile in 0..3 {
            assert_eq!(table.next_for(0), own(tile));
            table.complete(0, tile);
        }
        assert_eq!(
            table.next_for(0),
            NextLease::Tile {
                tile: 5,
                stolen: true
            }
        );
        assert_eq!(replay_makespan(&costs, 2).to_bits(), 9.0_f64.to_bits());
    }

    fn own(tile: usize) -> NextLease {
        NextLease::Tile {
            tile,
            stolen: false,
        }
    }
}
