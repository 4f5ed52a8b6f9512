//! Sharded scatter-gather correlation serving.
//!
//! `bmb-cluster` turns N independent durable stores into one logical
//! correlation server:
//!
//! * [`Partitioner`] routes ingested baskets to shards with a pure,
//!   seeded hash of the basket id (round-robin as a fallback);
//! * [`CoordinatorService`] speaks the standalone server's protocol
//!   unchanged: it scatters each support read of a query as a
//!   `support_vec` request, sums the shards' integer support vectors, and
//!   hands them to the same evaluation a single store's snapshot feeds
//!   (`bmb_core::source`) — so answers are **bit-identical** (f64 bit
//!   patterns) to an unsharded store at the same epoch-vector cut;
//! * [`NodeService`] + [`Replicator`] implement WAL-shipping
//!   replication with **generation fencing**: a warm standby tails a
//!   primary's write-ahead log, meters its lag, and takes over on
//!   `promote` at a durably bumped generation; a rejoining stale
//!   primary is fenced, demoted, and catches up before serving again —
//!   two nodes never answer as primary for one shard;
//! * [`chaos`] is a deterministic TCP fault-injection proxy (seeded
//!   latency, drops, stalls, corruption, runtime partitions) used by
//!   the torture suite to prove the above under network chaos.
//!
//! Consistency model in one sentence: every response names the exact
//! per-shard epochs `[e0, …, eN-1]` it was computed at, and any two
//! responses with equal epoch vectors are answers over the same
//! logical database.

#![warn(missing_docs)]

/// Deterministic TCP fault-injection proxy with a runtime control socket.
pub mod chaos;
/// Injectable monotonic clock for endpoint state-transition tests.
pub mod clock;
/// Scatter-gather coordinator: central evaluation over shard supports.
pub mod coordinator;
/// Federated Prometheus exposition across cluster nodes.
pub mod federation;
/// WAL-shipping replication pull loop and its tuning.
pub mod follower;
/// Cluster-wide counters and gauges (`bmb_cluster_*`).
pub mod metrics;
/// Generation-fenced shard node: primary/follower role switching.
pub mod node;
/// Deterministic basket-id → shard routing.
pub mod partition;

pub use chaos::{ChaosConfig, ChaosHandle, ChaosProxy};
pub use clock::{Clock, SystemClock, TestClock};
pub use coordinator::{CoordinatorConfig, CoordinatorService, ShardSpec};
pub use federation::{federate, NodeExposition};
pub use follower::{FollowerConfig, Replicator};
pub use metrics::ClusterMetrics;
pub use node::{NodeService, Role};
pub use partition::{PartitionStrategy, Partitioner, DEFAULT_SEED};
