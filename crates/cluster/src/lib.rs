//! `mdmp-cluster` — a distributed tile-sharding coordinator over
//! `mdmp-service` worker nodes.
//!
//! The paper's tile driver partitions the matrix-profile computation into
//! independent, restart-bounded tiles — exactly the unit of work a cluster
//! scheduler wants. This crate shards one job's tiles across N worker
//! nodes over the existing JSON-lines TCP protocol (`tile_exec` requests),
//! steals tiles from straggler nodes when a faster node drains its shard,
//! quarantines nodes that fail (connection drop, deadline overrun,
//! repeated tile errors) via the same health-ledger machinery that
//! quarantines simulated devices, re-dispatches their leased tiles, and
//! merges results deterministically through a cluster-scope reorder
//! buffer — so the cluster's output is **bit-identical** to a single-node
//! run in every precision mode (DESIGN.md §12).
//!
//! The crate coordinates real worker processes over real sockets; only
//! per-tile device seconds come from the cost model. The cluster's
//! modelled makespan replays the same lease table on those seconds
//! ([`replay_makespan`]), so the modelled schedule is the real claim
//! policy and does not depend on host timing.
//!
//! ## Quick start
//!
//! Start workers (any number, any mix of machines):
//!
//! ```text
//! mdmp-cluster serve --addr 127.0.0.1:7701
//! mdmp-cluster serve --addr 127.0.0.1:7702
//! ```
//!
//! Submit a job across them:
//!
//! ```text
//! mdmp-cluster submit --nodes 127.0.0.1:7701,127.0.0.1:7702 \
//!     --n 4096 --d 4 --m 64 --mode fp16 --tiles 16
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cli;
pub mod client;
pub mod coordinator;
pub mod lease;
pub(crate) mod sync;

pub use client::{decode_tile, tile_exec_request, DecodedTile, NodeClient, NodeError};
pub use coordinator::{
    job_spec_json, run_cluster, ClusterConfig, ClusterError, ClusterRun, NodeReport, ReorderMerge,
};
pub use lease::{replay_makespan, Completion, LeaseTable, NextLease};
