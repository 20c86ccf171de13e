//! `SdflmqClientConfig::aggregation` reaches the live aggregation path.

use sdflmq_core::{
    ClientId, CoordinateMedian, Coordinator, CoordinatorConfig, ModelId, ParamServer,
    PreferredRole, SdflmqClient, SdflmqClientConfig, SessionId, Topology, WaitOutcome,
};
use sdflmq_mqtt::Broker;
use sdflmq_mqttfc::BatchConfig;
use std::time::Duration;

#[test]
fn a_median_aggregator_outvotes_an_outlier_on_the_live_stack() {
    let broker = Broker::start_default();
    let _coordinator = Coordinator::start(
        &broker,
        CoordinatorConfig {
            topology: Topology::Central,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let _ps = ParamServer::start(&broker, BatchConfig::default()).unwrap();
    let session = SessionId::new("median").unwrap();
    let model = ModelId::new("toy").unwrap();
    let clients: Vec<SdflmqClient> = (0..3)
        .map(|i| {
            let config = SdflmqClientConfig {
                aggregation: Box::new(CoordinateMedian),
                ..SdflmqClientConfig::default()
            };
            SdflmqClient::connect(&broker, ClientId::new(format!("m{i}")).unwrap(), config).unwrap()
        })
        .collect();
    clients[0]
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(600),
            3,
            3,
            Duration::from_secs(30),
            1,
            PreferredRole::Any,
            100,
        )
        .unwrap();
    for client in &clients[1..] {
        client
            .join_fl_session(&session, &model, PreferredRole::Any, 100)
            .unwrap();
    }

    // One outlier among equal weights: FedAvg lands on 103 / 3, the median
    // on the middle value.
    let handles: Vec<_> = clients
        .into_iter()
        .zip([1.0f32, 2.0, 100.0])
        .map(|(client, value)| {
            let session = session.clone();
            std::thread::spawn(move || {
                client.set_model(&session, &[value; 4]).unwrap();
                client.send_local(&session).unwrap();
                let outcome = client.wait_global_update(&session, Duration::from_secs(60));
                assert_eq!(outcome.unwrap(), WaitOutcome::Completed);
                client.model_params(&session).unwrap()
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), vec![2.0; 4]);
    }
}
