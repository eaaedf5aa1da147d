//! Deterministic-interleaving model check (vendor/interleave) of the
//! coordinator's lease table.
//!
//! The model wraps the *real* [`mdmp_cluster::LeaseTable`] — it is pure
//! bookkeeping with no internal locks — in the checker's mutex/condvar,
//! with exactly the production lock protocol of `coordinator.rs`: first
//! leases granted before any node claims, claim under the lock (wait on the condvar while nothing is claimable),
//! execute outside it, then `complete`/`fail`+`quarantine` under the lock
//! followed by `notify_all`. Every schedule the checker explores is a
//! schedule the real coordinator could see.
//!
//! Checked invariants, across all interleavings:
//!
//! - **no tile is merged twice** (`complete` reports `Merged` at most
//!   once per tile);
//! - **no lease is lost** when a node fails and is quarantined mid-job —
//!   even while the survivor is concurrently stealing from the dying
//!   node's shard — so every tile is merged exactly once;
//! - the wait/notify protocol has **no lost wakeup** (a deadlock would
//!   abort the exploration); the negative control shows the checker
//!   catches the bug if the failure path forgets `notify_all`.

use interleave::{explore, spawn, Condvar, Config, Mutex};
use mdmp_cluster::{Completion, LeaseTable, NextLease};
use std::collections::BTreeMap;
use std::sync::Arc;

struct Model {
    table: Mutex<LeaseTable>,
    work: Condvar,
    /// tile -> times `complete` reported `Merged` for it.
    merged: Mutex<BTreeMap<usize, usize>>,
    /// Whether the failure path notifies waiters (true in production; the
    /// negative control turns it off to demonstrate the lost wakeup).
    notify_on_fail: bool,
}

/// One node thread, with the production claim/execute/complete protocol.
/// `fail_first` makes the node fail its first executed tile and be
/// quarantined (threshold 1), like a killed worker.
fn node_loop(model: &Model, node: usize, fail_first: bool) {
    loop {
        let tile = {
            let mut table = model.table.lock();
            loop {
                match table.next_for(node) {
                    NextLease::Finished => return,
                    NextLease::Tile { tile, .. } => break tile,
                    NextLease::Wait => table = model.work.wait(table),
                }
            }
        };
        // "Execute" happens outside the lock, like the real RPC.
        if fail_first {
            {
                let mut table = model.table.lock();
                table.fail(node, tile);
                table.quarantine(node);
            }
            if model.notify_on_fail {
                model.work.notify_all();
            }
            return;
        }
        let completion = {
            let mut table = model.table.lock();
            table.complete(node, tile)
        };
        model.work.notify_all();
        if completion == Completion::Merged {
            *model.merged.lock().entry(tile).or_insert(0) += 1;
        }
    }
}

/// Two nodes over `tiles` tiles, each granted the front of its own shard
/// before either runs, as `run_cluster` does; node 1 dies on its first
/// tile (that grant) when `kill_node_1`. Asserts the exactly-once
/// invariants after both join.
fn lease_model(
    tiles: usize,
    kill_node_1: bool,
    notify_on_fail: bool,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let mut table = LeaseTable::new(tiles, 2);
        table.grant_first_leases();
        let model = Arc::new(Model {
            table: Mutex::new(table),
            work: Condvar::new(),
            merged: Mutex::new(BTreeMap::new()),
            notify_on_fail,
        });
        let a = {
            let model = Arc::clone(&model);
            spawn(move || node_loop(&model, 0, false))
        };
        let b = {
            let model = Arc::clone(&model);
            spawn(move || node_loop(&model, 1, kill_node_1))
        };
        a.join();
        b.join();
        let merged = model.merged.lock();
        assert_eq!(merged.len(), tiles, "a lease was lost: {:?}", &*merged);
        for (tile, count) in merged.iter() {
            assert_eq!(*count, 1, "tile {tile} merged {count} times");
        }
        let table = model.table.lock();
        assert_eq!(table.merged(), tiles);
        // Node 1 always reaches its granted tile, and a tile has exactly
        // one holder, so the kill always orphans that lease into the
        // re-dispatch queue.
        if kill_node_1 {
            assert!(
                table.redispatches() >= 1,
                "the dead node's lease must be re-dispatched"
            );
        }
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn full_no_tile_merged_twice() {
    let report = explore(Config::quick(2500), lease_model(3, false, true));
    assert!(report.schedules > 1000, "explored {}", report.schedules);
}

#[test]
#[cfg_attr(miri, ignore)]
fn full_no_lease_lost_when_node_quarantined_mid_steal() {
    let report = explore(Config::quick(2500), lease_model(4, true, true));
    assert!(report.schedules > 1000, "explored {}", report.schedules);
}

#[test]
#[cfg_attr(miri, ignore)]
fn full_quarantine_three_tiles_exactly_once() {
    let report = explore(Config::quick(2500), lease_model(3, true, true));
    assert!(report.schedules > 1000, "explored {}", report.schedules);
}

/// Negative control: if the failure path forgets `notify_all`, a survivor
/// parked on the condvar never learns about the re-dispatched tile — the
/// checker reports the deadlock.
#[test]
#[cfg_attr(miri, ignore)]
#[should_panic]
fn full_missing_notify_on_fail_is_caught() {
    explore(Config::quick(60_000), lease_model(4, true, false));
}

#[test]
fn smoke_lease_table() {
    explore(Config::quick(48), lease_model(2, false, true));
    explore(Config::quick(48), lease_model(3, true, true));
}
