//! Requests no honest client sends must be refused, not crash the node.

use sdflmq_core::{
    ClientId, Coordinator, CoordinatorConfig, CoreError, ModelId, PreferredRole, SdflmqClient,
    SdflmqClientConfig, SessionId,
};
use sdflmq_mqtt::Broker;
use std::time::Duration;

#[test]
fn an_unrepresentable_session_time_is_refused_and_the_coordinator_lives_on() {
    let broker = Broker::start_default();
    let _coordinator = Coordinator::start(&broker, CoordinatorConfig::default()).unwrap();
    let client = SdflmqClient::connect(
        &broker,
        ClientId::new("c0").unwrap(),
        SdflmqClientConfig::default(),
    )
    .unwrap();
    let model = ModelId::new("mlp").unwrap();
    let create = |session: &str, session_time| {
        client.create_fl_session(
            &SessionId::new(session).unwrap(),
            &model,
            session_time,
            1,
            2,
            Duration::from_secs(60),
            1,
            PreferredRole::Any,
            10,
        )
    };
    // ~1.8e19 s on the wire: more than a `Duration` parsed from an f64
    // can hold. It used to panic the coordinator's dispatcher thread,
    // after which every request from every client timed out.
    let err = create("forever", Duration::MAX).unwrap_err();
    assert!(matches!(err, CoreError::Refused(_)), "got {err:?}");
    create("an-hour", Duration::from_secs(3600)).unwrap();
}
