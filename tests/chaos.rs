//! Deterministic chaos scenarios over the real protocol stack.
//!
//! Every test drives the **real** broker / coordinator / param-server /
//! client threads through a seeded fault plan ([`sdflmq::mqtt::fault`])
//! on a virtual clock, twice, and asserts the two runs produce an
//! identical [`ScenarioTrace`] hash — the determinism gate — before
//! asserting the scenario's protocol invariants. Traces land in
//! `target/chaos/<name>-<seed>.json` (the CI chaos job uploads them on
//! failure). Reproduce a failing run with
//! `SDFLMQ_CHAOS_SEED=<seed> cargo test --test chaos <name>`.
//!
//! None of these behaviours is expressible in the pre-existing suite:
//! the wall-clock integration tests cannot partition a live session,
//! duplicate a specific frame, swap two control messages, or hit a grace
//! boundary exactly — and the simulator never runs this code at all.

use sdflmq::core::optimizer::RoundRobin;
use sdflmq::core::{Topology, UpdateCodec};
use sdflmq::mqtt::{Durability, FaultPlan, FaultRule};
use sdflmq_testkit::{assert_deterministic, base_seed, Behavior, ScenarioBuilder, ScenarioTrace};
use std::time::Duration;

/// The bit pattern every client must report for a session whose FedAvg
/// global is exactly `v` (integer-valued locals make the fold exact, so
/// this is run-order-independent).
fn global_bits(v: f64) -> String {
    format!("g={:08x}", (v as f32).to_bits())
}

/// Pins a `shards = 1` scenario's trace hash to its golden value — the
/// refactor gate: any change to routing order, fault evaluation, or
/// delivery sequencing in the deterministic single-shard mode shows up
/// here as a hash drift. Skipped when the CI seed matrix overrides the
/// seed (a different seed legitimately produces a different trace).
fn assert_golden_hash(trace: &ScenarioTrace, golden: u64) {
    if std::env::var("SDFLMQ_CHAOS_SEED").is_ok() {
        return;
    }
    assert_eq!(
        trace.hash(),
        golden,
        "scenario {} trace hash {:016x} drifted from golden {golden:016x}",
        trace.scenario,
        trace.hash(),
    );
}

fn assert_all_completed(trace: &ScenarioTrace, rounds: u32, mean: f64) {
    for o in &trace.outcomes {
        assert_eq!(
            o.outcome,
            format!("completed:{}", global_bits(mean)),
            "client {} outcome",
            o.client
        );
        assert_eq!(o.rounds, rounds, "client {} rounds", o.client);
    }
    assert_eq!(trace.final_state, "completed");
    assert!(trace.evicted.is_empty(), "evicted: {:?}", trace.evicted);
}

/// Coordinator ⇄ root-aggregator partition opens mid-round-1, drops the
/// root's liveness and completion reports, and heals mid-round-2: the
/// quorum+grace machinery closes round 1 without the partitioned root,
/// the deadline nudge re-announces round 2 across the healed link, and
/// the session completes with **no evictions** — the partitioned client
/// was alive the whole time.
#[test]
fn chaos_partition_coordinator_aggregator_heals_mid_round() {
    let seed = base_seed(42) ^ 0x01;
    let trace = assert_deterministic(|| {
        let plan = FaultPlan::seeded(seed)
            .rule(FaultRule::partition("part", "coordinator", "c00").initially_inactive());
        ScenarioBuilder::new("chaos-partition", seed)
            .client(Behavior::Gated(vec![1]), UpdateCodec::Dense) // c00: root
            .client(Behavior::Normal, UpdateCodec::Dense) // c01
            .client(Behavior::Normal, UpdateCodec::Dense) // c02
            .rounds(2)
            .quorum(0.6, Duration::from_secs(5))
            .round_timeout(Duration::from_secs(30))
            .max_missed_rounds(4)
            .capacity_min(2)
            .faults(plan)
            .run(|ctl| {
                ctl.wait_for("round1-open", |c| c.round() == Some(1));
                // The two trainers have contributed; the gated root has not.
                ctl.wait_for("trainers-contributed", |c| {
                    c.contributed() == ["c01", "c02"]
                });
                ctl.set_fault("part", true);
                ctl.release_round("c00", 1);
                // The root's aggregate flows (data plane is not partitioned),
                // everyone applies the global, but only the trainers' done
                // reports reach the coordinator.
                ctl.wait_for("done-stuck-at-quorum", |c| c.done() == ["c01", "c02"]);
                assert_eq!(ctl.round(), Some(1), "round must not close before grace");
                ctl.advance(Duration::from_secs(5)); // exactly the grace
                ctl.wait_for("round2-open", |c| c.round() == Some(2));
                ctl.wait_for("round2-trainers-contributed", |c| {
                    c.contributed() == ["c01", "c02"]
                });
                ctl.set_fault("part", false); // heal
                assert!(ctl.fault_hits("part") >= 2, "partition saw traffic");
                // Blow the round-2 deadline: the nudge re-announces the round
                // over the healed link and the root rejoins.
                ctl.advance(Duration::from_secs(31));
                ctl.wait_for("completed", |c| c.is_terminal());
            })
    });
    assert_all_completed(&trace, 2, 2.0); // mean of 1,2,3
    assert_eq!(trace.survivors, ["c00", "c01", "c02"]);
    assert_golden_hash(&trace, 0xf235218afa117842);
}

/// Builds and runs the duplicated-contribution scenario with each
/// client's data plane on a pool of `threads` workers (0 = the shared
/// process pool). Both callers below pin the *same* golden hash: the
/// parallel codecs and folds are bit-identical to serial, so the thread
/// count must be invisible in the trace.
fn run_dup_contrib(threads: usize) -> ScenarioTrace {
    let seed = base_seed(42) ^ 0x02;
    let plan = FaultPlan::seeded(seed).rule(
        FaultRule::duplicate("dup")
            .on_topic("sdflmq/session/chaos-dup-contrib/role/root")
            .from_client("c01")
            .take(1),
    );
    ScenarioBuilder::new("chaos-dup-contrib", seed)
        .normal_clients(2, UpdateCodec::Dense) // c00=1, c01=2
        .client(Behavior::Normal, UpdateCodec::Dense)
        .value(4.0) // c02=4: a double-counted c01 would shift the mean
        .rounds(1)
        .data_plane_threads(threads)
        .faults(plan)
        .hash_rule("dup")
        .run(|ctl| {
            ctl.wait_for("completed", |c| c.is_terminal());
        })
}

/// A trainer's parameter blob is delivered twice (at-least-once
/// semantics): the aggregator's sender-keyed stack must fold it exactly
/// once, keeping the global bit-exact.
#[test]
fn chaos_duplicated_contrib_is_deduplicated() {
    let trace = assert_deterministic(|| run_dup_contrib(0));
    // (1+2+4)/3; a double-counted duplicate would read (1+2+2+4)/4 = 2.25.
    assert_all_completed(&trace, 1, 7.0 / 3.0);
    assert_golden_hash(&trace, 0x710f2135b8b6358a);
    assert_eq!(trace.rule_hits, [("dup".to_owned(), 1)]);
}

/// The parallel data plane is invisible to the protocol: the same pinned
/// scenario as [`chaos_duplicated_contrib_is_deduplicated`], but every
/// client encodes, decodes, and folds on its own 4-thread worker pool.
/// The trace must land on the *same* golden hash — chunk layout is a
/// pure function of model length, never thread count.
#[test]
fn chaos_parallel_data_plane_keeps_golden_hash() {
    let trace = assert_deterministic(|| run_dup_contrib(4));
    assert_all_completed(&trace, 1, 7.0 / 3.0);
    assert_golden_hash(&trace, 0x710f2135b8b6358a);
    assert_eq!(trace.rule_hits, [("dup".to_owned(), 1)]);
}

/// A model bigger than one parallel chunk (20 000 params > the
/// 8192-element codec chunk) through the lossy int8 codec, run at 1 and
/// at 4 data-plane threads: the two traces must hash identically.
/// Quantization ranges, error feedback, and the folded global all cross
/// chunk boundaries here, so any thread-count dependence in the chunked
/// kernels would move the global's bit pattern and split the hashes.
#[test]
fn chaos_multichunk_int8_is_thread_count_invariant() {
    let seed = base_seed(42) ^ 0x09;
    let run = |threads: usize| {
        ScenarioBuilder::new("chaos-threads-int8", seed)
            .normal_clients(3, UpdateCodec::Int8)
            .rounds(2)
            .model_len(20_000)
            .data_plane_threads(threads)
            .run(|ctl| {
                // Nothing holds this fleet back, so under load both rounds
                // can finish between two polls: a session past round 1
                // has opened it too.
                ctl.wait_for("round1-open", |c| c.round().is_some() || c.is_terminal());
                ctl.drive_to_completion(Duration::from_secs(10));
            })
    };
    let serial = assert_deterministic(|| run(1));
    let parallel = assert_deterministic(|| run(4));
    assert_eq!(
        serial.hash(),
        parallel.hash(),
        "thread count leaked into the trace: {:016x} vs {:016x}",
        serial.hash(),
        parallel.hash(),
    );
    assert_eq!(serial.final_state, "completed");
    assert_eq!(parallel.final_state, "completed");
}

/// Round-robin hands the root position to a new client in round 2; the
/// fault plan swaps that client's `set_role` and `round_start` so it
/// hears the round open *before* it learns it is the aggregator. The
/// re-delegation logic (stored-contribution redirect + deadline resync)
/// must still converge.
#[test]
fn chaos_reordered_set_role_and_round_start() {
    let seed = base_seed(42) ^ 0x03;
    let trace = assert_deterministic(|| {
        let plan = FaultPlan::seeded(seed).rule(
            // Messages to c01's control function: round-1 set_role and
            // round_start pass (skip 2), the round-2 set_role is stashed
            // and released right after the round-2 round_start.
            FaultRule::reorder_next("swap")
                .on_topic("mqttfc/fn/cl_c01")
                .from_client("coordinator")
                .skip(2)
                .take(1),
        );
        ScenarioBuilder::new("chaos-reorder-ctrl", seed)
            .normal_clients(3, UpdateCodec::Dense)
            .rounds(2)
            .optimizer(|| Box::new(RoundRobin))
            .round_timeout(Duration::from_secs(30))
            .max_missed_rounds(5)
            .role_ack_timeout(Duration::from_millis(400))
            .faults(plan)
            .hash_rule("swap")
            .run(|ctl| {
                ctl.wait_for("round2-open", |c| c.round() == Some(2) || c.is_terminal());
                // Contributions published while the root position was
                // vacant may be lost; deadline nudges recover them.
                ctl.drive_to_completion(Duration::from_secs(35));
            })
    });
    assert_all_completed(&trace, 2, 2.0);
    assert_eq!(trace.rule_hits, [("swap".to_owned(), 1)]);
    assert_golden_hash(&trace, 0x43aa2c77a9000339);
}

/// Two of three reports close the quorum; the third is held hostage. The
/// round must stay open with zero virtual time elapsed, close exactly at
/// the grace boundary, and the hostage report — released into round 2 —
/// must be rejected as stale without disturbing the session.
#[test]
fn chaos_delayed_quorum_closes_exactly_at_grace_boundary() {
    let seed = base_seed(42) ^ 0x04;
    let trace = assert_deterministic(|| {
        let plan = FaultPlan::seeded(seed).rule(
            FaultRule::hold("late-done")
                .on_topic("mqttfc/fn/coord_round_done")
                .from_client("c02")
                .take(1),
        );
        ScenarioBuilder::new("chaos-grace-boundary", seed)
            .normal_clients(3, UpdateCodec::Dense)
            .rounds(2)
            .quorum(0.6, Duration::from_secs(5))
            .faults(plan)
            .hash_rule("late-done")
            .run(|ctl| {
                ctl.wait_for("round1-open", |c| c.round() == Some(1));
                ctl.wait_for("quorum-met", |c| c.done() == ["c00", "c01"]);
                // Frozen clock ⇒ the grace can never elapse on its own.
                std::thread::sleep(Duration::from_millis(200));
                assert_eq!(ctl.round(), Some(1), "round open until the boundary");
                assert_eq!(ctl.done(), ["c00", "c01"], "hostage report held");
                ctl.note("still-open-before-grace");
                ctl.advance(Duration::from_secs(5)); // exactly the grace
                                                     // Round 2 can open and complete within milliseconds, so
                                                     // accept either observation — both prove the boundary
                                                     // closed round 1.
                ctl.wait_for("round1-closed", |c| c.round() == Some(2) || c.is_terminal());
                // The stale round-1 report lands after closure and is refused.
                ctl.release_held("late-done");
                ctl.wait_for("completed", |c| c.is_terminal());
            })
    });
    assert_all_completed(&trace, 2, 2.0);
    assert_eq!(trace.rule_hits, [("late-done".to_owned(), 1)]);
    assert_golden_hash(&trace, 0x0a938448b5fd9d6d);
}

/// One byte of a trainer's blob frame is flipped in flight: the
/// aggregator's blob channel must count a dropped transfer (CRC), the
/// round stalls, and the deadline resync makes the trainer re-publish its
/// cached encoding — the session completes with the loss observable in
/// `dropped_transfers`.
#[test]
fn chaos_corrupt_blob_frame_forces_dropped_transfer_then_resend() {
    let seed = base_seed(42) ^ 0x05;
    let trace = assert_deterministic(|| {
        let plan = FaultPlan::seeded(seed).rule(
            FaultRule::corrupt("flip")
                .on_topic("sdflmq/session/chaos-blob-loss/role/root")
                .from_client("c01")
                .take(1),
        );
        ScenarioBuilder::new("chaos-blob-loss", seed)
            .normal_clients(3, UpdateCodec::Dense)
            .rounds(1)
            .round_timeout(Duration::from_secs(30))
            .max_missed_rounds(4)
            .faults(plan)
            .hash_rule("flip")
            .run(|ctl| {
                ctl.wait_for("round1-open", |c| c.round() == Some(1));
                ctl.wait_for("all-contributed", |c| {
                    c.contributed() == ["c00", "c01", "c02"]
                });
                ctl.wait_for("frame-corrupted", |c| c.fault_hits("flip") == 1);
                // The stalled round blows its deadline; the resync makes
                // c01 re-send (the fault window is exhausted, so the
                // retransmission passes clean).
                ctl.advance(Duration::from_secs(31));
                ctl.wait_for("completed", |c| c.is_terminal());
            })
    });
    assert_all_completed(&trace, 1, 2.0);
    assert_golden_hash(&trace, 0x9ffb783e6514a502);
    assert_eq!(trace.rule_hits, [("flip".to_owned(), 1)]);
    let root = trace.outcomes.iter().find(|o| o.client == "c00").unwrap();
    assert_eq!(
        root.dropped_transfers, 1,
        "the corrupt frame is counted at the aggregator"
    );
}

/// The scale soak: 50 clients on a two-level hierarchy, mixed codec
/// support (the session floors to dense), six trainers dying after their
/// round-1 contribution. Rounds close by quorum, the dead accrue strikes
/// across deadline windows, get evicted mid-round, their parents are
/// re-delegated, and all three rounds complete for the 44 survivors —
/// twice, with identical traces.
#[test]
fn chaos_fifty_client_mixed_codec_churn_soak() {
    let seed = base_seed(42) ^ 0x06;
    let trace = assert_deterministic(|| run_churn_soak("chaos-churn-soak", seed, 1));
    assert_churn_soak_outcomes(&trace);
    assert_golden_hash(&trace, 0x36d88003b6568f99);
}

/// Builds and runs the 50-client churn soak on a broker with `shards`
/// event-loop shards. `shards = 1` is the hash-asserted deterministic
/// run; higher counts are observability soaks (real cross-shard
/// concurrency makes the trace hash run-dependent, but every protocol
/// outcome below still holds).
fn run_churn_soak(name: &str, seed: u64, shards: usize) -> ScenarioTrace {
    let mut builder = ScenarioBuilder::new(name, seed)
        .rounds(3)
        .topology(Topology::Hierarchical {
            aggregator_ratio: 0.3,
        })
        .quorum(0.8, Duration::from_secs(2))
        .round_timeout(Duration::from_secs(30))
        .max_missed_rounds(3)
        .capacity_min(30)
        .model_len(32)
        .shards(shards)
        .wait_timeout(Duration::from_secs(120));
    for i in 0..50usize {
        let behavior = if i >= 44 {
            Behavior::DieAfterSend(1)
        } else {
            Behavior::Normal
        };
        let codec = if i % 2 == 0 {
            UpdateCodec::Int8
        } else {
            UpdateCodec::Dense
        };
        builder = builder.client(behavior, codec);
    }
    builder.uniform_value(1.0).run(|ctl| {
        ctl.wait_for("round1-open", |c| c.round() == Some(1));
        ctl.drive_to_completion(Duration::from_secs(10));
    })
}

fn assert_churn_soak_outcomes(trace: &ScenarioTrace) {
    assert_eq!(trace.final_state, "completed");
    assert_eq!(
        trace.survivors.len(),
        44,
        "survivors: {:?}",
        trace.survivors
    );
    assert_eq!(
        trace.evicted,
        ["c44", "c45", "c46", "c47", "c48", "c49"],
        "exactly the dead clients are evicted"
    );
    for o in &trace.outcomes {
        if o.client.as_str() >= "c44" {
            assert_eq!(o.outcome, "died", "client {}", o.client);
            assert_eq!(o.rounds, 0, "died before any global applied");
        } else {
            assert_eq!(
                o.outcome,
                format!("completed:{}", global_bits(1.0)),
                "client {}",
                o.client
            );
            assert_eq!(o.rounds, 3, "client {}", o.client);
        }
    }
}

/// The same churn soak on a 4-shard broker: clients hash across four
/// parallel event loops, QoS>0 deliveries hop between shard mailboxes,
/// and every protocol outcome (completion, survivor set, bit-exact
/// global) still holds. Observability-only: no trace-hash assertion —
/// cross-shard interleaving is real concurrency.
#[test]
fn chaos_churn_soak_on_four_shards() {
    let seed = base_seed(42) ^ 0x06;
    let trace = run_churn_soak("chaos-churn-soak-s4", seed, 4);
    assert_churn_soak_outcomes(&trace);
}

/// The broker is killed and restarted **mid-round** on a durable
/// (WAL + snapshot) configuration. One trainer's parameter blob is held
/// hostage inside the broker by a fault rule and dies with the process —
/// exactly the kind of in-flight loss a real crash inflicts, stalling
/// round-1 aggregation. The fleet redials, resumes its persistent
/// sessions from recovered broker state, the round-1 deadline blows, and
/// the PR-2 resync machinery (re-announce + idempotent re-send) rebuilds
/// the aggregation and completes every round bit-exactly. Run twice with
/// identical trace hashes: recovery is deterministic.
#[test]
fn chaos_broker_restart_mid_round_recovers_and_completes() {
    let seed = base_seed(42) ^ 0x08;
    let trace = assert_deterministic(|| {
        let plan = FaultPlan::seeded(seed).rule(
            FaultRule::hold("doomed-blob")
                .on_topic("sdflmq/session/chaos-broker-restart/role/root")
                .from_client("c02")
                .take(1),
        );
        ScenarioBuilder::new("chaos-broker-restart", seed)
            .normal_clients(3, UpdateCodec::Dense)
            .rounds(2)
            .round_timeout(Duration::from_secs(30))
            .max_missed_rounds(4)
            .durable()
            .faults(plan)
            .hash_rule("doomed-blob")
            .run(|ctl| {
                ctl.wait_for("round1-open", |c| c.round() == Some(1));
                // All three contribution pings arrive, but c02's blob is
                // stashed by the hold rule: aggregation is stuck at 2/3.
                ctl.wait_for("all-pinged", |c| c.contributed() == ["c00", "c01", "c02"]);
                ctl.wait_for("blob-held", |c| c.fault_hits("doomed-blob") == 1);
                // Kill the broker. The held blob is gone forever (hold
                // stashes die with the process); sessions, subscriptions,
                // and QoS state come back from WAL + snapshot.
                ctl.restart_broker();
                assert_eq!(ctl.round(), Some(1), "coordinator memory survives");
                assert_eq!(
                    ctl.contributed(),
                    ["c00", "c01", "c02"],
                    "liveness pings survive in-process"
                );
                // Blow the round-1 deadline: the resync re-announces the
                // round over the recovered broker, every trainer re-sends
                // its stored contribution (the fault window is exhausted,
                // so c02's re-send passes), and the rounds run out.
                ctl.advance(Duration::from_secs(31));
                ctl.drive_to_completion(Duration::from_secs(10));
            })
    });
    assert_all_completed(&trace, 2, 2.0); // mean of 1,2,3 — bit-exact
    assert_golden_hash(&trace, 0xc251adf392539833);
    assert_eq!(trace.survivors, ["c00", "c01", "c02"]);
    assert_eq!(trace.rule_hits, [("doomed-blob".to_owned(), 1)]);
}

/// The broker-restart scenario rerun under `GroupCommit` durability must
/// reproduce the exact golden trace of the `OsCache` run above: fsync
/// scheduling is persistence-thread timing, and persistence timing never
/// enters trace hashes. A divergence here means the write-behind
/// pipeline leaked wall-clock behavior into the federation.
#[test]
fn chaos_broker_restart_group_commit_matches_oscache_golden() {
    let seed = base_seed(42) ^ 0x08;
    let trace = assert_deterministic(|| {
        let plan = FaultPlan::seeded(seed).rule(
            FaultRule::hold("doomed-blob")
                .on_topic("sdflmq/session/chaos-broker-restart/role/root")
                .from_client("c02")
                .take(1),
        );
        ScenarioBuilder::new("chaos-broker-restart", seed)
            .normal_clients(3, UpdateCodec::Dense)
            .rounds(2)
            .round_timeout(Duration::from_secs(30))
            .max_missed_rounds(4)
            .durability(Durability::GroupCommit {
                interval: Duration::from_millis(2),
            })
            .faults(plan)
            .hash_rule("doomed-blob")
            .run(|ctl| {
                ctl.wait_for("round1-open", |c| c.round() == Some(1));
                ctl.wait_for("all-pinged", |c| c.contributed() == ["c00", "c01", "c02"]);
                ctl.wait_for("blob-held", |c| c.fault_hits("doomed-blob") == 1);
                ctl.restart_broker();
                assert_eq!(ctl.round(), Some(1), "coordinator memory survives");
                ctl.advance(Duration::from_secs(31));
                ctl.drive_to_completion(Duration::from_secs(10));
            })
    });
    assert_all_completed(&trace, 2, 2.0);
    // Same golden as the OsCache restart run: durability is invisible to
    // the trace.
    assert_golden_hash(&trace, 0xc251adf392539833);
    assert_eq!(trace.survivors, ["c00", "c01", "c02"]);
    assert_eq!(trace.rule_hits, [("doomed-blob".to_owned(), 1)]);
}

/// Regression for nondeterministic fan-out order: a count-window fault
/// rule on a *broadcast* topic acts on whichever subscriber is delivered
/// first. Before fan-out was sorted, `route()` iterated a `HashMap`, so
/// the victim varied run to run — here the corrupted round-1 global
/// would land on a random client, moving that client's (hashed)
/// `dropped_transfers` counter between runs and failing the determinism
/// gate. Sorted fan-out pins the victim to the lexicographically
/// smallest subscriber (`c00`) on every run.
#[test]
fn chaos_fanout_window_picks_deterministic_victim() {
    let seed = base_seed(42) ^ 0x07;
    let trace = assert_deterministic(|| {
        let plan = FaultPlan::seeded(seed).rule(
            FaultRule::corrupt("mangle-global")
                .on_topic("sdflmq/session/chaos-fanout-victim/global")
                .take(1),
        );
        ScenarioBuilder::new("chaos-fanout-victim", seed)
            .normal_clients(3, UpdateCodec::Dense)
            .rounds(2)
            .quorum(0.6, Duration::from_secs(2))
            .round_timeout(Duration::from_secs(30))
            .max_missed_rounds(3)
            .capacity_min(2)
            .faults(plan)
            .hash_rule("mangle-global")
            .run(|ctl| {
                ctl.wait_for("round1-open", |c| c.round() == Some(1));
                ctl.wait_for("global-corrupted", |c| c.fault_hits("mangle-global") == 1);
                ctl.drive_to_completion(Duration::from_secs(10));
            })
    });
    assert_eq!(trace.rule_hits, [("mangle-global".to_owned(), 1)]);
    assert_golden_hash(&trace, 0x6488dfa18e2cad9e);
    assert_eq!(trace.final_state, "completed");
    assert!(
        trace.evicted.is_empty(),
        "everyone recovers: {:?}",
        trace.evicted
    );
    // Victim fingerprint: exactly the sorted-first subscriber saw the
    // corrupt frame; everyone still finishes both rounds bit-exactly.
    for o in &trace.outcomes {
        let expect_drops = u64::from(o.client == "c00");
        assert_eq!(
            o.dropped_transfers, expect_drops,
            "client {} dropped_transfers",
            o.client
        );
        assert_eq!(o.rounds, 2, "client {}", o.client);
        assert_eq!(
            o.outcome,
            format!("completed:{}", global_bits(2.0)),
            "client {}",
            o.client
        );
    }
}
