//! Pluggable role-optimization policies (the coordinator's load balancer,
//! paper §III.E.6).
//!
//! An optimizer ranks clients for aggregation duty each round. The module
//! ships five policies spanning the paper's design space: a static
//! baseline, round-robin rotation (device-exhaustion avoidance), a
//! memory-aware greedy policy (the paper's motivating scenario: aggregators
//! must hold the parameter stack in RAM), a composite weighted score, and
//! seeded random placement; [`crate::genetic::GeneticPlacement`] adds a
//! black-box one. Policies are deliberately modular — "depending on the
//! needs of the application, different optimizers can be employed" — and
//! there is one way to pick one: hand a `Box<dyn RoleOptimizer>` to
//! [`crate::CoordinatorConfig::optimizer`] or
//! [`crate::SimConfig::optimizer`].

use crate::clustering::ClientInfo;
use crate::ids::ClientId;
use crate::roles::PreferredRole;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Ranks clients for aggregation positions; index 0 becomes the root.
pub trait RoleOptimizer: Send {
    /// Policy name for logs and experiment tables.
    fn name(&self) -> &'static str;

    /// Returns all clients ranked by aggregation fitness (best first).
    /// The clustering engine takes the prefix it needs.
    fn rank(&mut self, clients: &[ClientInfo], round: u32) -> Vec<ClientId>;

    /// Feedback hook: the measured end-to-end delay of the round this
    /// optimizer's most recent ranking was deployed for. Stats-based
    /// policies ignore it; black-box policies (the genetic optimizer from
    /// the paper's §VII) learn from it.
    fn observe_round(&mut self, round: u32, delay_secs: f64) {
        let _ = (round, delay_secs);
    }
}

fn prefers_aggregation(c: &ClientInfo) -> bool {
    matches!(c.preferred, PreferredRole::Aggregator | PreferredRole::Any)
}

/// Keeps the initial (id-sorted) order forever — the "fixed aggregator
/// placement" the paper argues against; useful as an experimental control.
#[derive(Debug, Default)]
pub struct StaticOrder;

impl RoleOptimizer for StaticOrder {
    fn name(&self) -> &'static str {
        "static"
    }

    fn rank(&mut self, clients: &[ClientInfo], _round: u32) -> Vec<ClientId> {
        let mut ids: Vec<&ClientInfo> = clients.iter().collect();
        ids.sort_by(|a, b| {
            prefers_aggregation(b)
                .cmp(&prefers_aggregation(a))
                .then_with(|| a.id.cmp(&b.id))
        });
        ids.into_iter().map(|c| c.id.clone()).collect()
    }
}

/// Rotates aggregation duty by the round number, spreading energy/memory
/// cost across the fleet (device-exhaustion avoidance).
#[derive(Debug, Default)]
pub struct RoundRobin;

impl RoleOptimizer for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn rank(&mut self, clients: &[ClientInfo], round: u32) -> Vec<ClientId> {
        let mut ids: Vec<ClientId> = clients.iter().map(|c| c.id.clone()).collect();
        ids.sort();
        if ids.is_empty() {
            return ids;
        }
        let shift = (round as usize).saturating_sub(1) % ids.len();
        ids.rotate_left(shift);
        ids
    }
}

/// Greedy by reported free memory — aggregators must hold the incoming
/// parameter stack, so free RAM is the binding constraint (paper §III.E.6's
/// motivating example).
#[derive(Debug, Default)]
pub struct MemoryAware;

impl RoleOptimizer for MemoryAware {
    fn name(&self) -> &'static str {
        "memory_aware"
    }

    fn rank(&mut self, clients: &[ClientInfo], _round: u32) -> Vec<ClientId> {
        let mut sorted: Vec<&ClientInfo> = clients.iter().collect();
        sorted.sort_by(|a, b| {
            b.stats
                .free_memory
                .cmp(&a.stats.free_memory)
                .then_with(|| a.id.cmp(&b.id))
        });
        sorted.into_iter().map(|c| c.id.clone()).collect()
    }
}

/// Weighted blend of normalized free memory and available CPU; preference
/// for clients that volunteered to aggregate breaks near-ties.
#[derive(Debug)]
pub struct CompositeScore {
    /// Weight on free memory (normalized 0..1 across the cohort).
    pub memory_weight: f64,
    /// Weight on available FLOP/s.
    pub cpu_weight: f64,
    /// Bonus for clients preferring aggregation.
    pub preference_bonus: f64,
}

impl Default for CompositeScore {
    fn default() -> Self {
        CompositeScore {
            memory_weight: 0.6,
            cpu_weight: 0.4,
            preference_bonus: 0.05,
        }
    }
}

impl RoleOptimizer for CompositeScore {
    fn name(&self) -> &'static str {
        "composite"
    }

    fn rank(&mut self, clients: &[ClientInfo], _round: u32) -> Vec<ClientId> {
        if clients.is_empty() {
            return Vec::new();
        }
        let max_mem = clients
            .iter()
            .map(|c| c.stats.free_memory)
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        let max_cpu = clients
            .iter()
            .map(|c| c.stats.available_flops)
            .fold(1.0f64, f64::max);
        let mut scored: Vec<(f64, &ClientInfo)> = clients
            .iter()
            .map(|c| {
                let mut score = self.memory_weight * (c.stats.free_memory as f64 / max_mem)
                    + self.cpu_weight * (c.stats.available_flops / max_cpu);
                if prefers_aggregation(c) {
                    score += self.preference_bonus;
                }
                (score, c)
            })
            .collect();
        scored.sort_by(|(sa, a), (sb, b)| {
            sb.partial_cmp(sa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        scored.into_iter().map(|(_, c)| c.id.clone()).collect()
    }
}

/// Uniform random placement — the black-box lower bound for ablations.
#[derive(Debug)]
pub struct RandomPlacement {
    rng: StdRng,
}

impl RandomPlacement {
    /// Deterministic random placement from `seed`.
    pub fn new(seed: u64) -> RandomPlacement {
        RandomPlacement {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl RoleOptimizer for RandomPlacement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn rank(&mut self, clients: &[ClientInfo], _round: u32) -> Vec<ClientId> {
        let mut ids: Vec<ClientId> = clients.iter().map(|c| c.id.clone()).collect();
        ids.sort();
        ids.shuffle(&mut self.rng);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdflmq_sim::SystemStats;

    fn client(id: &str, free_mem: u64, flops: f64, pref: PreferredRole) -> ClientInfo {
        ClientInfo {
            id: ClientId::new(id).unwrap(),
            stats: SystemStats {
                free_memory: free_mem,
                available_flops: flops,
                memory_utilization: 0.5,
            },
            preferred: pref,
            num_samples: 100,
        }
    }

    fn cohort() -> Vec<ClientInfo> {
        vec![
            client("small", 256 << 20, 1e9, PreferredRole::Trainer),
            client("medium", 1 << 30, 4e9, PreferredRole::Any),
            client("large", 4u64 << 30, 16e9, PreferredRole::Aggregator),
            client("tiny", 128 << 20, 5e8, PreferredRole::Trainer),
        ]
    }

    #[test]
    fn memory_aware_picks_largest() {
        let ranked = MemoryAware.rank(&cohort(), 1);
        assert_eq!(ranked[0].as_str(), "large");
        assert_eq!(ranked[1].as_str(), "medium");
        assert_eq!(ranked[3].as_str(), "tiny");
    }

    #[test]
    fn round_robin_rotates_with_round() {
        let mut rr = RoundRobin;
        let r1 = rr.rank(&cohort(), 1);
        let r2 = rr.rank(&cohort(), 2);
        let r5 = rr.rank(&cohort(), 5); // 4 clients → round 5 ≡ round 1
        assert_ne!(r1, r2);
        assert_eq!(r1, r5);
        assert_eq!(r2[0], r1[1], "rotation by one");
    }

    #[test]
    fn composite_blends_and_respects_preference() {
        let mut opt = CompositeScore::default();
        let ranked = opt.rank(&cohort(), 1);
        assert_eq!(ranked[0].as_str(), "large");
        // Preference bonus: between two identical machines, the volunteer
        // wins.
        let twins = vec![
            client("a_reluctant", 1 << 30, 1e9, PreferredRole::Trainer),
            client("b_volunteer", 1 << 30, 1e9, PreferredRole::Aggregator),
        ];
        let ranked = opt.rank(&twins, 1);
        assert_eq!(ranked[0].as_str(), "b_volunteer");
    }

    #[test]
    fn static_order_is_stable_across_rounds() {
        let mut opt = StaticOrder;
        assert_eq!(opt.rank(&cohort(), 1), opt.rank(&cohort(), 99));
        // Volunteers first.
        assert_eq!(opt.rank(&cohort(), 1)[0].as_str(), "large");
    }

    #[test]
    fn random_is_seeded_and_varies() {
        let mut a = RandomPlacement::new(1);
        let mut b = RandomPlacement::new(1);
        assert_eq!(a.rank(&cohort(), 1), b.rank(&cohort(), 1));
        // Over several rounds the ranking changes at least once.
        let first = a.rank(&cohort(), 2);
        let varied = (3..10).any(|r| a.rank(&cohort(), r) != first);
        assert!(varied);
    }

    #[test]
    fn empty_cohort_is_fine() {
        assert!(MemoryAware.rank(&[], 1).is_empty());
        assert!(CompositeScore::default().rank(&[], 1).is_empty());
        assert!(RoundRobin.rank(&[], 1).is_empty());
    }
}
