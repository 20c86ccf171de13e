//! Roles and role specifications.
//!
//! A client holds one of three roles per round (paper §III.C): *trainer*,
//! *aggregator*, or *trainer-aggregator*. Aggregating clients additionally
//! occupy a [`Position`] in the session's hierarchy; trainers only know the
//! position topic of their cluster head.

use crate::topics::Position;

/// A client's effective role for a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Trains locally and sends parameters up.
    Trainer,
    /// Only aggregates (contributes no local update).
    Aggregator,
    /// Trains locally *and* aggregates a cluster (paper Fig. 5's "A/T").
    TrainerAggregator,
}

impl Role {
    /// True if the role performs aggregation.
    pub fn aggregates(&self) -> bool {
        matches!(self, Role::Aggregator | Role::TrainerAggregator)
    }

    /// True if the role performs local training.
    pub fn trains(&self) -> bool {
        matches!(self, Role::Trainer | Role::TrainerAggregator)
    }

    /// Stable token form.
    pub fn as_token(&self) -> &'static str {
        match self {
            Role::Trainer => "trainer",
            Role::Aggregator => "aggregator",
            Role::TrainerAggregator => "trainer_aggregator",
        }
    }

    /// Parses the token form.
    pub fn from_token(s: &str) -> Option<Role> {
        match s {
            "trainer" => Some(Role::Trainer),
            "aggregator" => Some(Role::Aggregator),
            "trainer_aggregator" => Some(Role::TrainerAggregator),
            _ => None,
        }
    }
}

/// What a client *wants* to be (sent at session join; the coordinator
/// decides, paper §III.C.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreferredRole {
    /// Prefers training only.
    Trainer,
    /// Prefers to aggregate.
    Aggregator,
    /// No preference.
    Any,
}

impl PreferredRole {
    /// Stable token form.
    pub fn as_token(&self) -> &'static str {
        match self {
            PreferredRole::Trainer => "trainer",
            PreferredRole::Aggregator => "aggregator",
            PreferredRole::Any => "any",
        }
    }

    /// Parses the token form.
    pub fn from_token(s: &str) -> Option<PreferredRole> {
        match s {
            "trainer" => Some(PreferredRole::Trainer),
            "aggregator" => Some(PreferredRole::Aggregator),
            "any" => Some(PreferredRole::Any),
            _ => None,
        }
    }
}

/// A full role assignment for one client and one round — the payload of a
/// `set_role` control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoleSpec {
    /// The role to take.
    pub role: Role,
    /// The aggregation position held (None for pure trainers).
    pub position: Option<Position>,
    /// Where this client sends its (local or aggregated) parameters:
    /// the parent's position. The root has no parent position: it
    /// publishes the round's global on the global topic (see
    /// [`RoleSpec::is_root`]), and its `parent` is its own position.
    pub parent: Position,
    /// For aggregators: how many parameter blobs to expect per round.
    pub expected_inputs: u32,
    /// Round this assignment takes effect.
    pub round: u32,
    /// Update codec for the session's data-plane payloads
    /// (`sdflmq_nn::codec` ids), stamped by the coordinator: the minimum
    /// of every member's advertised support and the session creator's
    /// request. Blobs flow client → client, so the sender must use a
    /// codec every possible receiver decodes; `0` (dense f32) is the
    /// safe floor.
    pub data_codec: u8,
}

impl RoleSpec {
    /// True if this client is the root aggregator (its aggregate is the
    /// round's global, published on the global topic rather than to
    /// another position).
    pub fn is_root(&self) -> bool {
        self.position == Some(Position::Root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_predicates() {
        assert!(Role::Trainer.trains());
        assert!(!Role::Trainer.aggregates());
        assert!(Role::Aggregator.aggregates());
        assert!(!Role::Aggregator.trains());
        assert!(Role::TrainerAggregator.trains());
        assert!(Role::TrainerAggregator.aggregates());
    }

    #[test]
    fn token_roundtrips() {
        for r in [Role::Trainer, Role::Aggregator, Role::TrainerAggregator] {
            assert_eq!(Role::from_token(r.as_token()), Some(r));
        }
        for p in [
            PreferredRole::Trainer,
            PreferredRole::Aggregator,
            PreferredRole::Any,
        ] {
            assert_eq!(PreferredRole::from_token(p.as_token()), Some(p));
        }
        assert_eq!(Role::from_token("chef"), None);
    }

    #[test]
    fn root_detection() {
        let spec = RoleSpec {
            role: Role::Aggregator,
            position: Some(Position::Root),
            parent: Position::Root,
            expected_inputs: 2,
            round: 1,
            data_codec: 0,
        };
        assert!(spec.is_root());
    }
}
