//! `imc-fleet` — multi-chip cluster serving for the FeFET-IMC stack:
//! shard, replicate, route, fail over (DESIGN §14).
//!
//! One simulated chip (`imc-serve`) holds one `ChipImage`. Scaling past
//! a chip means a *fleet*: this crate's router is the front door that
//! makes N replicas answer exactly like one chip.
//!
//! ```text
//!  clients ──Infer (BIN1)───────▶ imc-fleet router
//!                                   │ per layer: quantize once
//!                                   │ scatter Partial ──▶ shard-0 replica(s)
//!                                   │                 ──▶ shard-1 replica(s)
//!                                   │ gather Σ i64 partials, digital glue
//!                                   ▼
//!                               bit-exact logits
//! ```
//!
//! The load-bearing property is **bit-exactness**: the operating point
//! satisfies the exact shift-add condition
//! (`packed::shift_add_is_exact`), so summing each shard's i64 partial
//! accumulations and applying the digital glue at the router reproduces
//! single-node `QNetwork::forward` — and therefore single-chip serving
//! — bit for bit. Sharding is a placement decision, not an accuracy
//! trade.
//!
//! Module map:
//!
//! * [`topology`] — [`FleetPlan`]: chunk ownership per shard, digital
//!   glue per layer, expected image digests. From the `imc-compile
//!   fleet` manifest or the synthetic `(design, seed)` arithmetic.
//! * [`health`] — admission (`Describe` digest checks → typed
//!   quarantine) and the Healthy/Suspect/Quarantined failover board.
//! * [`router`] — the TCP front door: replicated round-robin for
//!   1-shard fleets, scatter/gather partial-sum combining for N-shard
//!   fleets, failover with `RetryPolicy` backoff, and one energy
//!   counter (`cost.fleet_energy_pj_total`) at the plan's price.

#![deny(missing_docs)]

pub mod health;
pub mod router;
pub mod topology;

pub use health::{FleetError, HealthBoard, Replica, ReplicaState};
pub use router::{serve_fleet, FleetHandle, RouterConfig};
pub use topology::{FleetPlan, GlueLayer, ShardSlot};
