//! The SDFLMQ topic scheme.
//!
//! Role management is topic-based (paper §III.E): aggregation roles map to
//! *positional* topics within a session. A client "takes" the role by
//! subscribing to the position's topic and "releases" it by unsubscribing
//! (Fig. 6). Trainers always publish to their cluster head's *position*
//! topic, so a role rearrangement only touches the clients whose positions
//! change — everyone else's subscriptions stay valid, which is exactly the
//! dynamic-role-management benefit the paper claims for pub/sub.

use crate::ids::SessionId;
use sdflmq_mqtt::TopicName;

/// Coordinator function names (MQTTFC).
pub mod functions {
    /// Create a new FL session.
    pub const NEW_SESSION: &str = "coord_new_session";
    /// Join an existing FL session.
    pub const JOIN_SESSION: &str = "coord_join_session";
    /// Report round completion + client stats.
    pub const ROUND_DONE: &str = "coord_round_done";
    /// Contribution liveness ping (straggler detection).
    pub const CONTRIB: &str = "coord_contrib";

    /// The per-client control function (role and session commands).
    pub fn client_ctrl(client_id: &str) -> String {
        format!("cl_{client_id}")
    }
}

/// An aggregation position in the session hierarchy.
///
/// `Root` receives the final level of aggregation; `Agg(i)` are
/// intermediate cluster heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Position {
    /// The root aggregator (publishes the round's global model).
    Root,
    /// Intermediate aggregator `i`.
    Agg(u32),
}

impl Position {
    /// Stable string form used in topics ("root", "agg0", "agg1", …).
    pub fn as_token(&self) -> String {
        match self {
            Position::Root => "root".to_owned(),
            Position::Agg(i) => format!("agg{i}"),
        }
    }

    /// Parses the token form.
    pub fn from_token(s: &str) -> Option<Position> {
        if s == "root" {
            return Some(Position::Root);
        }
        s.strip_prefix("agg")?.parse().ok().map(Position::Agg)
    }
}

/// Topic where a position's aggregator receives model parameters.
pub fn position_topic(session: &SessionId, position: Position) -> TopicName {
    TopicName::new(format!(
        "sdflmq/session/{session}/role/{}",
        position.as_token()
    ))
    .expect("session ids are topic-safe")
}

/// Public topic where the root aggregator publishes each round's global
/// model, to every contributor and the parameter server.
pub fn global_topic(session: &SessionId) -> TopicName {
    TopicName::new(format!("sdflmq/session/{session}/global")).expect("session ids are topic-safe")
}

/// Topic where the coordinator publishes the session's cluster topology
/// (retained, so late observers can inspect it — paper Fig. 5).
pub fn topology_topic(session: &SessionId) -> TopicName {
    TopicName::new(format!("sdflmq/session/{session}/topology"))
        .expect("session ids are topic-safe")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid() -> SessionId {
        SessionId::new("s1").unwrap()
    }

    #[test]
    fn position_tokens_roundtrip() {
        for p in [Position::Root, Position::Agg(0), Position::Agg(17)] {
            assert_eq!(Position::from_token(&p.as_token()), Some(p));
        }
        assert_eq!(Position::from_token("bogus"), None);
        assert_eq!(Position::from_token("aggx"), None);
    }

    #[test]
    fn topics_are_valid_and_distinct() {
        let topics = [
            position_topic(&sid(), Position::Root),
            position_topic(&sid(), Position::Agg(0)),
            global_topic(&sid()),
            topology_topic(&sid()),
        ];
        for (i, a) in topics.iter().enumerate() {
            for b in topics.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(
            position_topic(&sid(), Position::Agg(2)).as_str(),
            "sdflmq/session/s1/role/agg2"
        );
    }

    #[test]
    fn ctrl_function_names() {
        assert_eq!(functions::client_ctrl("c7"), "cl_c7");
    }
}
