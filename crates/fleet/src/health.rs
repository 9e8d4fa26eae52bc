//! Replica health: admission checks, the health board, and failover
//! state (DESIGN §14).
//!
//! Every replica moves through a three-state machine:
//!
//! ```text
//!          Describe digest matches plan
//!   (new) ────────────────────────────────▶ Healthy ◀──┐
//!     │                                       │        │ success
//!     │ digest / shard / shape mismatch       │ I/O    │
//!     ▼                                       ▼ error  │
//!  Quarantined (terminal; never picked)     Suspect ───┘
//! ```
//!
//! `Quarantined` is for *wrong answers waiting to happen* — a replica
//! serving a stale image version, the wrong shard count, or the wrong
//! shape. It is terminal: mixing one stale shard into a partial-sum
//! combine would silently corrupt logits, so a typed [`FleetError`] at
//! admission beats any amount of runtime cleverness. `Suspect` is for
//! *liveness* failures (connect refused, broken pipe): the replica
//! stays eligible as a last resort and is promoted back to `Healthy` on
//! the next success.

use std::fmt;

use imc_serve::DescribeReply;

use crate::topology::FleetPlan;

/// Health of one replica, as seen by the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Answering and verified; preferred by [`HealthBoard::pick`].
    Healthy,
    /// Recent I/O failure; picked only when no healthy replica of the
    /// shard exists, and promoted back on success.
    Suspect,
    /// Failed a correctness check (stale image, wrong shard/shape).
    /// Terminal: never picked.
    Quarantined,
}

/// Typed fleet routing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The replica's `Describe` digest does not match the plan's
    /// expected digest for its shard: it serves a stale or foreign
    /// image version and must not contribute partial sums.
    StaleImage {
        /// Replica address.
        addr: String,
        /// Shard the replica claims to serve.
        shard: usize,
        /// Digest the plan expects for that shard.
        expect: u64,
        /// Digest the replica reported.
        got: u64,
    },
    /// The replica is cut for a different fleet width than the plan.
    ShardMismatch {
        /// Replica address.
        addr: String,
        /// Shard count the plan is built for.
        expect_count: usize,
        /// Shard count the replica reported (0 = whole model).
        got_count: usize,
    },
    /// The replica serves a model of a different shape, or names a
    /// shard outside its own cut.
    ShapeMismatch {
        /// Replica address.
        addr: String,
        /// What disagreed (human-readable).
        what: String,
    },
    /// No admissible replica is available for the shard.
    NoReplica {
        /// The starved shard index.
        shard: usize,
    },
    /// The replica never answered `Describe` during admission; it is
    /// tracked as unassigned (not quarantined) and never picked.
    Unreachable {
        /// Replica address.
        addr: String,
        /// Last connect/describe error, as text.
        error: String,
    },
    /// Every failover attempt for a shard was exhausted.
    Exhausted {
        /// The shard whose replicas kept failing.
        shard: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// Last underlying error, as text.
        last: String,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::StaleImage {
                addr,
                shard,
                expect,
                got,
            } => write!(
                f,
                "replica {addr} quarantined: shard {shard} image digest \
                 {got:#x} does not match fleet manifest {expect:#x} (stale image version)"
            ),
            Self::ShardMismatch {
                addr,
                expect_count,
                got_count,
            } => write!(
                f,
                "replica {addr} quarantined: cut {got_count}-way but the fleet plan \
                 is {expect_count}-way"
            ),
            Self::ShapeMismatch { addr, what } => {
                write!(f, "replica {addr} quarantined: {what}")
            }
            Self::NoReplica { shard } => {
                write!(f, "no admissible replica for shard {shard}")
            }
            Self::Unreachable { addr, error } => {
                write!(f, "replica {addr} unreachable at admission: {error}")
            }
            Self::Exhausted {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "shard {shard}: every replica failed after {attempts} attempts (last: {last})"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// One tracked replica.
#[derive(Debug, Clone)]
pub struct Replica {
    /// TCP address (`host:port`).
    pub addr: String,
    /// Shard it serves (`usize::MAX` until admitted).
    pub shard: usize,
    /// Current health state.
    pub state: ReplicaState,
}

/// The router's shared replica scoreboard.
#[derive(Debug)]
pub struct HealthBoard {
    replicas: Vec<Replica>,
    /// Per-shard round-robin cursor.
    cursors: Vec<usize>,
}

impl HealthBoard {
    /// Creates an empty board for a `shard_count`-way plan.
    #[must_use]
    pub fn new(shard_count: usize) -> Self {
        Self {
            replicas: Vec::new(),
            cursors: vec![0; shard_count],
        }
    }

    /// Admits a replica from its `Describe` reply: verifies shard
    /// membership, shape, and image digest against the plan, then
    /// registers it `Healthy`. Correctness failures register it
    /// `Quarantined` (still visible on the board, never picked) and
    /// return the typed error.
    ///
    /// # Errors
    ///
    /// [`FleetError::ShardMismatch`], [`FleetError::ShapeMismatch`], or
    /// [`FleetError::StaleImage`] when the replica must not serve.
    pub fn admit(
        &mut self,
        plan: &FleetPlan,
        addr: &str,
        d: &DescribeReply,
    ) -> Result<usize, FleetError> {
        match Self::check(plan, addr, d) {
            Ok(shard) => {
                self.upsert(addr, shard, ReplicaState::Healthy);
                Ok(shard)
            }
            Err(e) => {
                self.upsert(addr, usize::MAX, ReplicaState::Quarantined);
                Err(e)
            }
        }
    }

    /// Pure admission check (no board mutation): which shard would this
    /// `Describe` reply be admitted to?
    ///
    /// # Errors
    ///
    /// Same correctness errors as [`HealthBoard::admit`].
    pub fn check(plan: &FleetPlan, addr: &str, d: &DescribeReply) -> Result<usize, FleetError> {
        if d.features != plan.features || d.classes != plan.classes {
            return Err(FleetError::ShapeMismatch {
                addr: addr.to_owned(),
                what: format!(
                    "serves {}→{} but the plan is {}→{}",
                    d.features, d.classes, plan.features, plan.classes
                ),
            });
        }
        let (shard, expect) = if plan.whole_model() {
            // Whole-model fleets replicate unsharded servers.
            if d.shard_count != 0 {
                return Err(FleetError::ShardMismatch {
                    addr: addr.to_owned(),
                    expect_count: 1,
                    got_count: d.shard_count,
                });
            }
            (0, plan.base_digest)
        } else {
            if d.shard_count != plan.shard_count() {
                return Err(FleetError::ShardMismatch {
                    addr: addr.to_owned(),
                    expect_count: plan.shard_count(),
                    got_count: d.shard_count,
                });
            }
            let Some(slot) = plan.shards.get(d.shard_index) else {
                return Err(FleetError::ShapeMismatch {
                    addr: addr.to_owned(),
                    what: format!("claims shard {} of {}", d.shard_index, d.shard_count),
                });
            };
            (d.shard_index, slot.expect_digest)
        };
        if d.digest != expect {
            return Err(FleetError::StaleImage {
                addr: addr.to_owned(),
                shard,
                expect,
                got: d.digest,
            });
        }
        Ok(shard)
    }

    /// Records a replica that never answered `Describe` during
    /// admission: tracked as `Suspect` with no shard assignment, so it
    /// shows on the board but is never picked.
    pub fn note_unreachable(&mut self, addr: &str) {
        self.upsert(addr, usize::MAX, ReplicaState::Suspect);
    }

    fn upsert(&mut self, addr: &str, shard: usize, state: ReplicaState) {
        if let Some(r) = self.replicas.iter_mut().find(|r| r.addr == addr) {
            r.shard = shard;
            r.state = state;
        } else {
            self.replicas.push(Replica {
                addr: addr.to_owned(),
                shard,
                state,
            });
        }
    }

    /// Picks a replica for `shard`, round-robin among `Healthy`
    /// replicas, falling back to `Suspect` ones (they may have
    /// recovered). `excluding` skips replicas already tried for this
    /// request. Quarantined replicas are never returned.
    #[must_use]
    pub fn pick(&mut self, shard: usize, excluding: &[usize]) -> Option<usize> {
        let eligible = |state: ReplicaState| {
            let n = self.replicas.len();
            if n == 0 {
                return None;
            }
            let start = self.cursors.get(shard).copied().unwrap_or(0);
            (0..n).map(|k| (start + k) % n).find(|&i| {
                let r = &self.replicas[i];
                r.shard == shard && r.state == state && !excluding.contains(&i)
            })
        };
        let found = eligible(ReplicaState::Healthy).or_else(|| eligible(ReplicaState::Suspect))?;
        if let Some(c) = self.cursors.get_mut(shard) {
            *c = (found + 1) % self.replicas.len().max(1);
        }
        Some(found)
    }

    /// Records a successful exchange with replica `idx`.
    pub fn mark_ok(&mut self, idx: usize) {
        if let Some(r) = self.replicas.get_mut(idx) {
            if r.state != ReplicaState::Quarantined {
                r.state = ReplicaState::Healthy;
            }
        }
    }

    /// Records an I/O failure with replica `idx` (liveness, not
    /// correctness): the replica turns `Suspect` but stays eligible as
    /// a last resort.
    pub fn mark_suspect(&mut self, idx: usize) {
        if let Some(r) = self.replicas.get_mut(idx) {
            if r.state != ReplicaState::Quarantined {
                r.state = ReplicaState::Suspect;
            }
        }
    }

    /// All tracked replicas.
    #[must_use]
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Number of quarantined replicas.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.state == ReplicaState::Quarantined)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FleetPlan;
    use imc_serve::{synthetic_digest, DescribeReply};
    use neural::imc_exec::ImcDesign;

    fn plan2() -> FleetPlan {
        FleetPlan::synthetic(ImcDesign::ChgFe, 42, 2).unwrap()
    }

    fn honest(plan: &FleetPlan, shard: usize) -> DescribeReply {
        DescribeReply {
            digest: plan.shards[shard].expect_digest,
            shard_index: shard,
            shard_count: plan.shard_count(),
            features: plan.features,
            classes: plan.classes,
        }
    }

    #[test]
    fn stale_image_is_quarantined_with_typed_error() {
        // A replica built from a *different seed* — i.e. a stale image
        // version — must be quarantined, not mixed into the fleet; so
        // must a whole-model replica of the other design. A plan entry
        // with digest 0 admits no replica, not every replica.
        let sharded = plan2();
        let whole = FleetPlan::synthetic(ImcDesign::ChgFe, 42, 1).unwrap();
        let mut zero = plan2();
        zero.shards[1].expect_digest = 0;
        let cases = [
            (
                &sharded,
                1,
                DescribeReply {
                    digest: synthetic_digest(ImcDesign::ChgFe, 43, Some((1, 2))),
                    ..honest(&sharded, 1)
                },
            ),
            (
                &whole,
                0,
                DescribeReply {
                    digest: synthetic_digest(ImcDesign::CurFe, 42, None),
                    shard_count: 0,
                    ..honest(&whole, 0)
                },
            ),
            (&zero, 1, honest(&sharded, 1)),
        ];
        for (plan, want_shard, stale) in cases {
            let mut board = HealthBoard::new(plan.shard_count());
            let err = board.admit(plan, "10.0.0.9:7400", &stale).unwrap_err();
            match &err {
                FleetError::StaleImage {
                    shard, expect, got, ..
                } => {
                    assert_eq!(*shard, want_shard);
                    assert_eq!(*expect, plan.shards[want_shard].expect_digest);
                    assert_ne!(got, expect);
                }
                other => panic!("expected StaleImage, got {other:?}"),
            }
            assert!(err.to_string().contains("stale image version"));
            assert_eq!(board.quarantined(), 1);
            // Quarantine is terminal: the replica is tracked but never picked.
            assert!(board.pick(want_shard, &[]).is_none());
        }
    }

    #[test]
    fn shard_width_mismatch_is_rejected() {
        let plan = plan2();
        let mut board = HealthBoard::new(plan.shard_count());
        let wrong = DescribeReply {
            shard_count: 3,
            ..honest(&plan, 0)
        };
        match board.admit(&plan, "a:1", &wrong) {
            Err(FleetError::ShardMismatch {
                expect_count: 2,
                got_count: 3,
                ..
            }) => {}
            other => panic!("expected ShardMismatch, got {other:?}"),
        }
        // A `Describe` naming a shard past its own cut is a typed error,
        // not an out-of-range index into the plan.
        let outside = DescribeReply {
            shard_index: 2,
            ..honest(&plan, 1)
        };
        match board.admit(&plan, "b:1", &outside) {
            Err(FleetError::ShapeMismatch { what, .. }) => assert_eq!(what, "claims shard 2 of 2"),
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        assert_eq!(board.quarantined(), 2);
    }

    #[test]
    fn pick_prefers_healthy_and_falls_back_to_suspect() {
        let plan = plan2();
        let mut board = HealthBoard::new(plan.shard_count());
        board.admit(&plan, "a:1", &honest(&plan, 0)).unwrap();
        board.admit(&plan, "b:1", &honest(&plan, 0)).unwrap();
        let first = board.pick(0, &[]).unwrap();
        board.mark_suspect(first);
        // The healthy peer wins while one replica is suspect...
        let second = board.pick(0, &[]).unwrap();
        assert_ne!(first, second);
        assert_eq!(board.replicas()[second].state, ReplicaState::Healthy);
        board.mark_suspect(second);
        // ...but with no healthy replica left, a suspect is still
        // offered (it may have recovered), excluding already-tried ones.
        let third = board.pick(0, &[second]).unwrap();
        assert_eq!(third, first);
        board.mark_ok(third);
        assert_eq!(board.replicas()[third].state, ReplicaState::Healthy);
    }

    #[test]
    fn round_robin_rotates_over_healthy_replicas() {
        let plan = FleetPlan::synthetic(ImcDesign::ChgFe, 42, 1).unwrap();
        let mut board = HealthBoard::new(1);
        let whole = DescribeReply {
            digest: plan.base_digest,
            shard_index: 0,
            shard_count: 0,
            features: plan.features,
            classes: plan.classes,
        };
        for addr in ["a:1", "b:1", "c:1"] {
            board.admit(&plan, addr, &whole).unwrap();
        }
        let picks: Vec<usize> = (0..6).map(|_| board.pick(0, &[]).unwrap()).collect();
        assert_eq!(picks[..3], picks[3..6], "cycle repeats");
        let mut seen = picks[..3].to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "all replicas take traffic");
    }
}
