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

#[test]
fn ten_fleet_start_stop_cycles_leave_no_thread_behind() {
    let before = live_threads();
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
