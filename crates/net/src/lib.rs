//! # SmartCrowd network substrate
//!
//! SmartCrowd's protocol messages — SRAs broadcast by providers, initial
//! and detailed reports submitted "to all IoT providers", freshly mined
//! blocks "broadcast and synchronized among IoT providers" (§V) — travel
//! over a peer-to-peer network. The paper's testbed ran five geth nodes on
//! one server; this crate builds the deterministic in-process equivalent
//! with strictly richer failure behaviour:
//!
//! - [`gossip`] — an event-queue network with per-link latency, seeded
//!   jitter, message drop and partitions, delivering in timestamp order;
//! - [`protocol`] — the wire messages (records, blocks, image requests);
//! - [`scoreboard`] — provider-side peer scoring that implements the
//!   paper's detector isolation ("SmartCrowd can isolate a compromised
//!   detector by enabling `P_i` to filter this detector's next reports",
//!   §V-C);
//! - [`sync`] — out-of-order block reassembly so lagging providers catch
//!   up after jitter or partitions.
//!
//! The *fabric itself* is single-threaded and seeded: a simulation run is
//! a pure function of its configuration, which the experiment harness
//! relies on. Compute inside a simulation step (signature recovery,
//! Merkle hashing) may still fan out on `smartcrowd-pool` workers — that
//! pool's index-ordered merge keeps results byte-identical at any thread
//! count, so the purity guarantee survives (see `DESIGN.md` §13).
//!
//! The fabric is instrumented: sends by message type, bytes, drops and
//! duplications (`net.gossip.*`), sync-buffer offer outcomes and orphan
//! occupancy (`net.sync.*`). See `OBSERVABILITY.md` for the inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The unwrap/expect wall (configured in the workspace clippy.toml): a panic
// in consensus-critical code can split the replicated state machine, so
// library code must surface failures as typed errors. Tests are exempt.
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod error;
pub mod gossip;
pub mod protocol;
pub mod scoreboard;
pub mod sync;

pub use error::NetError;
pub use gossip::{Delivery, GossipNet, LinkConfig, NodeId};
pub use protocol::Message;
pub use scoreboard::Scoreboard;
