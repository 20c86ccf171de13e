//! The clustering engine: builds the session's aggregation hierarchy and
//! computes minimal diffs between successive plans.
//!
//! Two topologies cover the paper's evaluation (§VI): `Central` (one
//! aggregator, the Fig. 8 baseline) and `Hierarchical` (a root aggregator
//! over intermediate cluster heads — "2-layer hierarchical SDFL" with the
//! aggregator count proportional to the client count). The *choice* of
//! which clients hold aggregation positions comes from a
//! [`crate::optimizer::RoleOptimizer`]; this module only does the
//! structural work.

use crate::ids::ClientId;
use crate::roles::{PreferredRole, Role, RoleSpec};
use crate::topics::Position;
use sdflmq_mqttfc::Json;
use sdflmq_sim::SystemStats;

/// Everything the coordinator knows about a contributor.
#[derive(Debug, Clone)]
pub struct ClientInfo {
    /// The client's id.
    pub id: ClientId,
    /// Latest reported stats.
    pub stats: SystemStats,
    /// The role the client asked for at join time.
    pub preferred: PreferredRole,
    /// Local dataset size (FedAvg weight).
    pub num_samples: u64,
}

/// Cluster topology selector.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// One aggregator; every other client is a trainer (the paper's
    /// central-aggregation baseline).
    Central,
    /// Root + intermediate aggregators; `aggregator_ratio` of the clients
    /// (at least 2, at most N) hold aggregation positions. The paper's
    /// evaluation uses 0.3.
    Hierarchical {
        /// Fraction of clients that aggregate.
        aggregator_ratio: f64,
    },
}

impl Topology {
    /// Number of aggregation positions this topology wants for `n` clients.
    pub fn aggregator_count(&self, n: usize) -> usize {
        match self {
            // Central always has exactly one aggregator (build_plan
            // rejects empty sessions before this matters).
            Topology::Central => 1,
            Topology::Hierarchical { aggregator_ratio } => {
                let raw = (aggregator_ratio * n as f64).round() as usize;
                raw.clamp(2.min(n.max(1)), n.max(1))
            }
        }
    }
}

/// One client's assignment within a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The assigned client.
    pub client: ClientId,
    /// Its full role spec.
    pub spec: RoleSpec,
}

/// A complete role/cluster plan for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPlan {
    /// Per-client assignments.
    pub assignments: Vec<Assignment>,
    /// Round the plan targets.
    pub round: u32,
}

impl ClusterPlan {
    /// Looks up a client's assignment.
    pub fn spec_of(&self, client: &ClientId) -> Option<&RoleSpec> {
        self.assignments
            .iter()
            .find(|a| &a.client == client)
            .map(|a| &a.spec)
    }

    /// Ids of clients holding aggregation positions (root first).
    pub fn aggregators(&self) -> Vec<&ClientId> {
        let mut aggs: Vec<&Assignment> = self
            .assignments
            .iter()
            .filter(|a| a.spec.position.is_some())
            .collect();
        aggs.sort_by_key(|a| a.spec.position);
        aggs.into_iter().map(|a| &a.client).collect()
    }

    /// Renders the topology JSON the coordinator publishes on the session
    /// topic (paper Fig. 5: `cluster_topology`).
    pub fn topology_json(&self, session_id: &str) -> Json {
        let assignments: Vec<Json> = self
            .assignments
            .iter()
            .map(|a| {
                let mut fields = vec![
                    ("client".to_owned(), Json::str(a.client.as_str())),
                    ("role".to_owned(), Json::str(a.spec.role.as_token())),
                    ("parent".to_owned(), Json::str(a.spec.parent.as_token())),
                ];
                if let Some(p) = a.spec.position {
                    fields.push(("position".to_owned(), Json::str(p.as_token())));
                }
                Json::object(fields)
            })
            .collect();
        Json::object([
            ("session", Json::str(session_id)),
            ("round", Json::num(self.round as f64)),
            ("assignments", Json::Array(assignments)),
        ])
    }
}

/// Builds a plan. `ranked_aggregators` is the optimizer's choice, best
/// first; element 0 becomes the root. Clients absent from the ranking
/// become trainers. Aggregating clients with local samples are
/// trainer-aggregators; sample-less ones are pure aggregators (paper
/// §III.C.3).
pub fn build_plan(
    clients: &[ClientInfo],
    topology: &Topology,
    ranked_aggregators: &[ClientId],
    round: u32,
) -> ClusterPlan {
    assert!(!clients.is_empty(), "cannot plan an empty session");
    let agg_count = topology.aggregator_count(clients.len());
    let aggs: Vec<&ClientId> = ranked_aggregators.iter().take(agg_count).collect();
    assert!(
        !aggs.is_empty(),
        "optimizer must rank at least one aggregator"
    );

    let samples_of = |id: &ClientId| -> u64 {
        clients
            .iter()
            .find(|c| &c.id == id)
            .map(|c| c.num_samples)
            .unwrap_or(0)
    };
    let agg_role = |id: &ClientId| -> Role {
        if samples_of(id) > 0 {
            Role::TrainerAggregator
        } else {
            Role::Aggregator
        }
    };

    let root = aggs[0].clone();
    let intermediates: Vec<ClientId> = aggs[1..].iter().map(|c| (*c).clone()).collect();
    let trainers: Vec<&ClientInfo> = clients.iter().filter(|c| !aggs.contains(&&c.id)).collect();

    let mut assignments = Vec::with_capacity(clients.len());
    let mut inputs_per_intermediate = vec![0u32; intermediates.len()];
    let mut root_inputs = 0u32;

    // Trainers: round-robin over intermediates, or straight to root when
    // the plan is central/degenerate.
    for (i, trainer) in trainers.iter().enumerate() {
        let parent = if intermediates.is_empty() {
            root_inputs += 1;
            Position::Root
        } else {
            let k = i % intermediates.len();
            inputs_per_intermediate[k] += 1;
            Position::Agg(k as u32)
        };
        assignments.push(Assignment {
            client: trainer.id.clone(),
            spec: RoleSpec {
                role: Role::Trainer,
                position: None,
                parent,
                expected_inputs: 0,
                round,
                data_codec: 0,
            },
        });
    }

    // Intermediates: their own local update (if training) also lands in
    // their stack.
    for (k, id) in intermediates.iter().enumerate() {
        let role = agg_role(id);
        let own = u32::from(role.trains());
        root_inputs += 1;
        assignments.push(Assignment {
            client: id.clone(),
            spec: RoleSpec {
                role,
                position: Some(Position::Agg(k as u32)),
                parent: Position::Root,
                expected_inputs: inputs_per_intermediate[k] + own,
                round,
                data_codec: 0,
            },
        });
    }

    // Root.
    let root_role = agg_role(&root);
    assignments.push(Assignment {
        client: root,
        spec: RoleSpec {
            role: root_role,
            position: Some(Position::Root),
            parent: Position::Root,
            expected_inputs: root_inputs + u32::from(root_role.trains()),
            round,
            data_codec: 0,
        },
    });

    ClusterPlan { assignments, round }
}

/// What the coordinator must send a client to move between plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanChange {
    /// Take this new spec (preceded by a reset if a position was held).
    Set(RoleSpec),
}

/// Computes the minimal per-client change set between consecutive plans —
/// only clients whose assignment actually changed are notified (paper
/// §III.E.5: "this process informs only the clients whose roles have
/// changed").
///
/// The `round` field is ignored in the comparison; the returned specs
/// carry the new plan's round.
pub fn diff_plans(old: &ClusterPlan, new: &ClusterPlan) -> Vec<(ClientId, PlanChange)> {
    let mut changes = Vec::new();
    for assignment in &new.assignments {
        let changed = match old.spec_of(&assignment.client) {
            Some(old_spec) => {
                let mut normalized = *old_spec;
                normalized.round = assignment.spec.round;
                normalized != assignment.spec
            }
            None => true,
        };
        if changed {
            changes.push((assignment.client.clone(), PlanChange::Set(assignment.spec)));
        }
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(s: &str) -> ClientId {
        ClientId::new(s).unwrap()
    }

    fn clients(n: usize) -> Vec<ClientInfo> {
        (0..n)
            .map(|i| ClientInfo {
                id: cid(&format!("c{i}")),
                stats: SystemStats {
                    free_memory: 1 << 30,
                    available_flops: 1e9,
                    memory_utilization: 0.3,
                },
                preferred: PreferredRole::Any,
                num_samples: 100,
            })
            .collect()
    }

    fn ids(n: usize) -> Vec<ClientId> {
        (0..n).map(|i| cid(&format!("c{i}"))).collect()
    }

    #[test]
    fn central_plan_has_one_aggregator() {
        let cs = clients(5);
        let plan = build_plan(&cs, &Topology::Central, &ids(5), 1);
        let aggs = plan.aggregators();
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0], &cid("c0"));
        // Root expects 4 trainers + its own local update.
        let root_spec = plan.spec_of(&cid("c0")).unwrap();
        assert_eq!(root_spec.expected_inputs, 5);
        assert_eq!(root_spec.role, Role::TrainerAggregator);
        // All trainers point at the root position.
        for i in 1..5 {
            let spec = plan.spec_of(&cid(&format!("c{i}"))).unwrap();
            assert_eq!(spec.role, Role::Trainer);
            assert_eq!(spec.parent, Position::Root);
        }
    }

    #[test]
    fn hierarchical_plan_structure() {
        let cs = clients(10);
        let topo = Topology::Hierarchical {
            aggregator_ratio: 0.3,
        };
        let plan = build_plan(&cs, &topo, &ids(10), 1);
        let aggs = plan.aggregators();
        assert_eq!(aggs.len(), 3, "30% of 10");
        // Two intermediates, each aggregating ~half of 7 trainers + self.
        let mut intermediate_inputs = 0u32;
        for a in &plan.assignments {
            if let Some(Position::Agg(_)) = a.spec.position {
                assert_eq!(a.spec.parent, Position::Root);
                intermediate_inputs += a.spec.expected_inputs;
            }
        }
        // 7 trainers + 2 own updates.
        assert_eq!(intermediate_inputs, 9);
        let root_spec = plan.spec_of(&cid("c0")).unwrap();
        // Root: 2 intermediates + own update.
        assert_eq!(root_spec.expected_inputs, 3);
    }

    #[test]
    fn expected_inputs_sum_covers_every_update() {
        // Invariant: total expected inputs == #training clients + #aggregates
        // forwarded (each aggregator forwards exactly one).
        for n in [3usize, 5, 8, 16, 20] {
            let cs = clients(n);
            let topo = Topology::Hierarchical {
                aggregator_ratio: 0.3,
            };
            let plan = build_plan(&cs, &topo, &ids(n), 1);
            let total_expected: u32 = plan
                .assignments
                .iter()
                .map(|a| a.spec.expected_inputs)
                .sum();
            let trainers = plan
                .assignments
                .iter()
                .filter(|a| a.spec.role.trains())
                .count() as u32;
            let forwards = plan.aggregators().len() as u32 - 1; // root doesn't forward to a position
            assert_eq!(
                total_expected,
                trainers + forwards,
                "n={n}: {total_expected} vs {} + {forwards}",
                trainers
            );
        }
    }

    #[test]
    fn sampleless_aggregator_is_pure() {
        let mut cs = clients(4);
        cs[0].num_samples = 0;
        let plan = build_plan(&cs, &Topology::Central, &ids(4), 1);
        let spec = plan.spec_of(&cid("c0")).unwrap();
        assert_eq!(spec.role, Role::Aggregator);
        assert_eq!(spec.expected_inputs, 3, "no own update expected");
    }

    #[test]
    fn diff_detects_only_changes() {
        let cs = clients(6);
        let topo = Topology::Hierarchical {
            aggregator_ratio: 0.34,
        };
        let plan1 = build_plan(&cs, &topo, &ids(6), 1);
        // Same ranking, next round: nothing changes.
        let plan2 = build_plan(&cs, &topo, &ids(6), 2);
        assert!(diff_plans(&plan1, &plan2).is_empty());

        // Swap the root with a trainer: multiple clients change.
        let mut ranking = ids(6);
        ranking.swap(0, 5);
        let plan3 = build_plan(&cs, &topo, &ranking, 2);
        let changes = diff_plans(&plan1, &plan3);
        assert!(!changes.is_empty());
        let changed: Vec<&str> = changes.iter().map(|(c, _)| c.as_str()).collect();
        assert!(changed.contains(&"c0"), "old root changed");
        assert!(changed.contains(&"c5"), "new root changed");
    }

    #[test]
    fn topology_json_lists_everyone() {
        let cs = clients(4);
        let plan = build_plan(&cs, &Topology::Central, &ids(4), 1);
        let j = plan.topology_json("s1");
        assert_eq!(j.get("session").unwrap().as_str(), Some("s1"));
        assert_eq!(j.get("assignments").unwrap().as_array().unwrap().len(), 4);
    }

    #[test]
    fn tiny_sessions_degenerate_gracefully() {
        let cs = clients(1);
        let plan = build_plan(&cs, &Topology::Central, &ids(1), 1);
        assert_eq!(plan.assignments.len(), 1);
        let spec = plan.spec_of(&cid("c0")).unwrap();
        assert!(spec.is_root());
        assert_eq!(spec.expected_inputs, 1, "only its own update");
    }

    #[test]
    fn aggregator_count_bounds() {
        let topo = Topology::Hierarchical {
            aggregator_ratio: 0.3,
        };
        assert_eq!(topo.aggregator_count(5), 2);
        assert_eq!(topo.aggregator_count(10), 3);
        assert_eq!(topo.aggregator_count(20), 6);
        assert_eq!(topo.aggregator_count(1), 1);
        assert_eq!(Topology::Central.aggregator_count(100), 1);
    }
}
