//! Black-box role optimization via a genetic algorithm — the paper's first
//! listed future expansion (§VII): "Dynamic Aggregation placement via swarm
//! intelligence optimization and genetic algorithm … as a black-box
//! optimizer … with zero reliance on application-specific information, and
//! solely on the performance of the framework in delivering the global
//! models to the client machines."
//!
//! The GA treats an aggregator *ranking* (a permutation of client ids) as a
//! genome. Each round deploys one genome; the observed round delay —
//! reported back through [`RoleOptimizer::observe_round`] — is its fitness.
//! Once the whole population has been evaluated, a new generation is bred
//! by elitist selection, order crossover (OX1), and swap mutation. No
//! client stats are consulted at all: the optimizer learns placement purely
//! from end-to-end delay, which makes it robust to stats that are missing,
//! stale, or adversarial.

use crate::clustering::ClientInfo;
use crate::ids::ClientId;
use crate::optimizer::RoleOptimizer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration for [`GeneticPlacement`].
#[derive(Debug, Clone, PartialEq)]
pub struct GeneticConfig {
    /// Genomes per generation.
    pub population: usize,
    /// Genomes copied unchanged into the next generation.
    pub elites: usize,
    /// Per-gene swap-mutation probability.
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            population: 8,
            elites: 2,
            mutation_rate: 0.15,
            seed: 0xCAFE,
        }
    }
}

#[derive(Debug, Clone)]
struct Genome {
    ranking: Vec<ClientId>,
    /// Smaller is better; `None` = not yet evaluated.
    fitness: Option<f64>,
}

/// An online genetic role optimizer (see module docs).
pub struct GeneticPlacement {
    config: GeneticConfig,
    rng: StdRng,
    population: Vec<Genome>,
    /// Index of the genome deployed in the most recent `rank` call.
    deployed: Option<usize>,
    generation: u64,
}

impl GeneticPlacement {
    /// Creates a GA optimizer.
    pub fn new(config: GeneticConfig) -> GeneticPlacement {
        assert!(config.population >= 2, "population must be at least 2");
        assert!(config.elites < config.population, "elites must leave room");
        let rng = StdRng::seed_from_u64(config.seed);
        GeneticPlacement {
            config,
            rng,
            population: Vec::new(),
            deployed: None,
            generation: 0,
        }
    }

    /// Number of completed generations.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Best observed fitness so far (round delay in seconds).
    pub fn best_fitness(&self) -> Option<f64> {
        self.population
            .iter()
            .filter_map(|g| g.fitness)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    fn seed_population(&mut self, ids: &[ClientId]) {
        self.population = (0..self.config.population)
            .map(|i| {
                let mut ranking = ids.to_vec();
                if i > 0 {
                    // Genome 0 keeps the id order as a sane baseline.
                    ranking.shuffle(&mut self.rng);
                }
                Genome {
                    ranking,
                    fitness: None,
                }
            })
            .collect();
        self.deployed = None;
    }

    fn population_matches(&self, ids: &[ClientId]) -> bool {
        self.population.first().map(|g| {
            g.ranking.len() == ids.len() && {
                let mut a: Vec<&ClientId> = g.ranking.iter().collect();
                let mut b: Vec<&ClientId> = ids.iter().collect();
                a.sort();
                b.sort();
                a == b
            }
        }) == Some(true)
    }

    fn evolve(&mut self) {
        // Sort ascending by fitness (unevaluated genomes sink last).
        self.population.sort_by(|a, b| {
            let fa = a.fitness.unwrap_or(f64::INFINITY);
            let fb = b.fitness.unwrap_or(f64::INFINITY);
            fa.partial_cmp(&fb).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut next: Vec<Genome> = self.population[..self.config.elites].to_vec();
        // Elites keep their fitness and are not re-evaluated; offspring
        // must be measured.
        while next.len() < self.config.population {
            let parent_a = self.tournament();
            let parent_b = self.tournament();
            let mut child = order_crossover(
                &self.population[parent_a].ranking,
                &self.population[parent_b].ranking,
                &mut self.rng,
            );
            // Swap mutation.
            for i in 0..child.len() {
                if self.rng.gen_bool(self.config.mutation_rate) {
                    let j = self.rng.gen_range(0..child.len());
                    child.swap(i, j);
                }
            }
            next.push(Genome {
                ranking: child,
                fitness: None,
            });
        }
        self.population = next;
        self.generation += 1;
    }

    fn tournament(&mut self) -> usize {
        // Binary tournament over the (sorted) population.
        let a = self.rng.gen_range(0..self.population.len());
        let b = self.rng.gen_range(0..self.population.len());
        let fa = self.population[a].fitness.unwrap_or(f64::INFINITY);
        let fb = self.population[b].fitness.unwrap_or(f64::INFINITY);
        if fa <= fb {
            a
        } else {
            b
        }
    }
}

/// OX1 order crossover: copy a random slice of parent A, fill the rest in
/// parent B's order. Preserves permutation validity.
fn order_crossover(a: &[ClientId], b: &[ClientId], rng: &mut StdRng) -> Vec<ClientId> {
    let n = a.len();
    if n < 2 {
        return a.to_vec();
    }
    let i = rng.gen_range(0..n);
    let j = rng.gen_range(0..n);
    let (lo, hi) = (i.min(j), i.max(j));
    let slice: Vec<&ClientId> = a[lo..=hi].iter().collect();
    let mut child: Vec<ClientId> = Vec::with_capacity(n);
    let mut b_iter = b.iter().filter(|id| !slice.contains(id));
    for (pos, gene) in a.iter().enumerate().take(n) {
        if pos >= lo && pos <= hi {
            child.push(gene.clone());
        } else {
            child.push(b_iter.next().expect("enough remaining genes").clone());
        }
    }
    child
}

impl RoleOptimizer for GeneticPlacement {
    fn name(&self) -> &'static str {
        "genetic"
    }

    fn rank(&mut self, clients: &[ClientInfo], _round: u32) -> Vec<ClientId> {
        let ids: Vec<ClientId> = clients.iter().map(|c| c.id.clone()).collect();
        if !self.population_matches(&ids) {
            self.seed_population(&ids);
        }
        // Deploy the first unevaluated genome; if all are evaluated,
        // breed a new generation first.
        let idx = match self.population.iter().position(|g| g.fitness.is_none()) {
            Some(idx) => idx,
            None => {
                self.evolve();
                self.population
                    .iter()
                    .position(|g| g.fitness.is_none())
                    .unwrap_or(0)
            }
        };
        self.deployed = Some(idx);
        self.population[idx].ranking.clone()
    }

    fn observe_round(&mut self, _round: u32, delay_secs: f64) {
        if let Some(idx) = self.deployed.take() {
            if let Some(genome) = self.population.get_mut(idx) {
                genome.fitness = Some(delay_secs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::PreferredRole;
    use sdflmq_sim::SystemStats;

    fn fleet(n: usize) -> Vec<ClientInfo> {
        (0..n)
            .map(|i| ClientInfo {
                id: ClientId::new(format!("c{i}")).unwrap(),
                stats: SystemStats {
                    free_memory: 1 << 28,
                    available_flops: 1e9,
                    memory_utilization: 0.5,
                },
                preferred: PreferredRole::Any,
                num_samples: 100,
            })
            .collect()
    }

    /// Synthetic black-box objective: the delay is dominated by which
    /// client sits at rank 0 (the root). Client `c0` is secretly the best.
    fn objective(ranking: &[ClientId]) -> f64 {
        let root_penalty: f64 = ranking
            .first()
            .map(|id| {
                let idx: f64 = id.as_str()[1..].parse().unwrap();
                idx * 10.0
            })
            .unwrap_or(1000.0);
        // Secondary: prefer low indices early overall.
        let order_penalty: f64 = ranking
            .iter()
            .enumerate()
            .map(|(pos, id)| {
                let idx: f64 = id.as_str()[1..].parse().unwrap();
                idx / (pos + 1) as f64
            })
            .sum();
        root_penalty + order_penalty
    }

    #[test]
    fn rankings_are_valid_permutations() {
        let clients = fleet(7);
        let mut ga = GeneticPlacement::new(GeneticConfig::default());
        for round in 1..=30 {
            let ranking = ga.rank(&clients, round);
            let mut sorted: Vec<&ClientId> = ranking.iter().collect();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 7, "round {round}: permutation");
            ga.observe_round(round, objective(&ranking));
        }
    }

    #[test]
    fn learns_better_placements_from_delay_feedback() {
        let clients = fleet(8);
        let mut ga = GeneticPlacement::new(GeneticConfig {
            population: 10,
            elites: 2,
            mutation_rate: 0.2,
            seed: 42,
        });
        let mut first_gen_best = f64::INFINITY;
        let mut last_best = f64::INFINITY;
        for round in 1..=120 {
            let ranking = ga.rank(&clients, round);
            let delay = objective(&ranking);
            ga.observe_round(round, delay);
            if ga.generation() == 0 {
                first_gen_best = first_gen_best.min(delay);
            }
            last_best = ga.best_fitness().unwrap_or(last_best);
        }
        assert!(
            ga.generation() >= 5,
            "evolved: {} generations",
            ga.generation()
        );
        assert!(
            last_best <= first_gen_best,
            "no regression: {last_best} vs first-gen {first_gen_best}"
        );
        // The best genome should have found a near-optimal root (c0 or c1).
        let final_ranking = {
            // Peek via rank(): the sorted population's elite leads.
            ga.evolve_for_test();
            ga.population[0].ranking.clone()
        };
        let root_idx: usize = final_ranking[0].as_str()[1..].parse().unwrap();
        assert!(
            root_idx <= 2,
            "GA should learn a good root placement, got c{root_idx}"
        );
    }

    #[test]
    fn membership_change_reseeds_population() {
        let mut ga = GeneticPlacement::new(GeneticConfig::default());
        let ranking = ga.rank(&fleet(5), 1);
        assert_eq!(ranking.len(), 5);
        ga.observe_round(1, 10.0);
        // The fleet grows: rankings must cover the new membership.
        let ranking = ga.rank(&fleet(9), 2);
        assert_eq!(ranking.len(), 9);
    }

    #[test]
    fn crossover_preserves_permutations() {
        let mut rng = StdRng::seed_from_u64(5);
        let a: Vec<ClientId> = (0..10)
            .map(|i| ClientId::new(format!("c{i}")).unwrap())
            .collect();
        let mut b = a.clone();
        b.reverse();
        for _ in 0..50 {
            let child = order_crossover(&a, &b, &mut rng);
            let mut sorted = child.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 10);
        }
    }

    impl GeneticPlacement {
        fn evolve_for_test(&mut self) {
            self.evolve();
        }
    }

    /// Paper §III role arbitration / §VII black-box placement: on a
    /// skewed-resource fleet the GA must learn placements that beat the
    /// static id-order baseline, using nothing but end-to-end round delay.
    #[test]
    fn genetic_beats_static_order_on_skewed_fleet() {
        use crate::optimizer::{RoleOptimizer, StaticOrder};
        use crate::simrun::SimConfig;
        use crate::Topology;
        use sdflmq_sim::SystemSpec;

        // Client i uses system_mix[i % len]: c0/c4/c8/... are starved
        // machines, the rest are capable. StaticOrder ranks by id, so the
        // weakest machine (c0) holds the root aggregator forever.
        let skewed = vec![
            SystemSpec {
                memory_total: 256 << 20,
                cpu_flops: 5e8,
                base_memory_load: 0.8,
            },
            SystemSpec::edge_small(),
            SystemSpec {
                memory_total: 4 << 30,
                cpu_flops: 16e9,
                base_memory_load: 0.2,
            },
            SystemSpec {
                memory_total: 2 << 30,
                cpu_flops: 8e9,
                base_memory_load: 0.3,
            },
        ];
        let run = |optimizer: Box<dyn RoleOptimizer>| {
            let report = crate::simrun::simulate(SimConfig {
                rounds: 120,
                system_mix: skewed.clone(),
                // Stationary environment: fitness snapshots stay
                // comparable across generations.
                drift: false,
                optimizer,
                ..SimConfig::fig8(
                    8,
                    Topology::Hierarchical {
                        aggregator_ratio: 0.25,
                    },
                )
            });
            // Score the *learned* regime: the mean of the last 30 rounds,
            // after the GA has had generations to converge.
            let tail: f64 = report
                .rounds
                .iter()
                .rev()
                .take(30)
                .map(|r| r.round_span.as_secs_f64())
                .sum::<f64>()
                / 30.0;
            tail
        };

        let static_tail = run(Box::new(StaticOrder));
        let genetic_tail = run(Box::new(GeneticPlacement::new(GeneticConfig::default())));
        assert!(
            genetic_tail < static_tail,
            "GA should beat StaticOrder on a skewed fleet: \
             genetic {genetic_tail:.3}s vs static {static_tail:.3}s / round"
        );
    }
}
