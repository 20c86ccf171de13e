//! Stopping a fleet must end every thread it started.
//!
//! One test in its own binary: it counts every task of the process, so it
//! must not share one with tests that start threads of their own.

use sdflmq::core::{Coordinator, CoordinatorConfig, ParamServer};
use sdflmq::mqtt::Broker;
use sdflmq::mqttfc::BatchConfig;
use sdflmq_testkit::require;
use std::time::Duration;

/// Live threads of this process (0 where `/proc` is not available).
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Names of the live threads the coordinator named (the kernel keeps 15
/// bytes of each), sorted.
fn coordinator_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_owned())
        .filter(|name| name.starts_with("coordinator-"))
        .collect();
    names.sort();
    names
}

#[test]
fn ten_fleet_start_stop_cycles_leave_no_thread_behind() {
    let before = live_threads();
    if before > 0 {
        // A running coordinator is its MQTT client's reader and dispatcher
        // plus one orchestration loop, and nothing else.
        let broker = Broker::start_default();
        let idle = live_threads();
        let coordinator = Coordinator::start(&broker, CoordinatorConfig::default()).unwrap();
        assert_eq!(live_threads() - idle, 3);
        // A thread names itself once it runs, so give the names a moment.
        require("the three are named", Duration::from_secs(30), || {
            coordinator_threads() == ["coordinator-dis", "coordinator-loo", "coordinator-rea"]
        });
        drop(coordinator);
        drop(broker);
    }
    for _ in 0..10 {
        let broker = Broker::start_default();
        let coordinator = Coordinator::start(&broker, CoordinatorConfig::default()).unwrap();
        let ps = ParamServer::start(&broker, BatchConfig::default()).unwrap();
        // Nodes first, the broker last, so every client sees its link close.
        drop(ps);
        drop(coordinator);
        drop(broker);
    }
    // Reader and dispatcher threads notice their link or queue closing
    // and exit on their own; nothing joins them, so give them a moment.
    require(
        "thread count back where it started",
        Duration::from_secs(30),
        || live_threads() == before,
    );
}
