//! Evenly-sized model splitting with an observation-guided genetic
//! algorithm (paper §3.2–§3.3).
//!
//! The chromosome is a set of `m−1` distinct cut positions. The two §2.4
//! observations shape the search:
//!
//! 1. *early cuts are expensive* → initialization and mutation are biased
//!    away from the front of the model ([`InitStrategy::Guided`]), and
//! 2. *even cuts sit near (slightly before) the middle* → the triangular
//!    sampling distribution peaks just before the midpoint.
//!
//! Each generation: profile every candidate (rayon-parallel, each an
//! `O(cuts)` lookup in the run's [`CostTable`]), select parents by
//! tournament on Eq. 2 fitness, apply the configured crossover with
//! probability `crossover_prob` (otherwise copy the parents), mutate cut
//! positions with probability `mutation_prob`, and
//! carry the elite fraction over unchanged. The loop stops at
//! `generations` or when the best candidate has not improved for
//! `patience` generations — exactly the steps enumerated in §3.3.

use crate::fitness::fitness;
use dnn_graph::{Graph, SplitSpec};
use gpu_sim::{CostTable, DeviceConfig};
use profiler::{profile_split_on, BlockProfile};
use rand::prelude::*;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// How the initial population (and mutation re-sampling) picks positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitStrategy {
    /// Observation-guided (§3.2): triangular distribution over op index,
    /// peaked slightly before the middle, truncated away from the front.
    Guided,
    /// Uniform over all positions — the ablation baseline.
    Uniform,
}

/// Genetic-algorithm configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Number of blocks to split into (`m`); the chromosome has `m−1` cuts.
    pub blocks: usize,
    /// Population size per generation.
    pub population: usize,
    /// Maximum generations.
    pub generations: usize,
    /// Probability a selected pair produces crossover offspring (otherwise
    /// the parents are copied).
    pub crossover_prob: f64,
    /// Per-offspring mutation probability.
    pub mutation_prob: f64,
    /// Fraction of the population carried over unchanged (elitism).
    pub elite_frac: f64,
    /// Stop early when the best fitness is unchanged this many generations.
    pub patience: usize,
    /// RNG seed (the algorithm is fully deterministic given the seed).
    pub seed: u64,
    /// Position-sampling strategy.
    pub init: InitStrategy,
    /// Crossover operator.
    pub crossover: CrossoverOp,
}

/// How two parent chromosomes recombine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrossoverOp {
    /// Each gene independently from either parent (default).
    Uniform,
    /// One split point in gene index space; children swap tails. With few
    /// genes this preserves co-adapted cut pairs better but mixes less.
    SinglePoint,
}

impl GaConfig {
    /// The paper-flavoured defaults for splitting into `blocks` blocks.
    pub fn new(blocks: usize) -> Self {
        Self {
            blocks,
            population: 32,
            generations: 30,
            crossover_prob: 0.8,
            mutation_prob: 0.2,
            elite_frac: 0.125,
            patience: 8,
            seed: 0x5917,
            init: InitStrategy::Guided,
            crossover: CrossoverOp::Uniform,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style init-strategy override (for the ablation bench).
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Builder-style crossover-operator override.
    pub fn with_crossover(mut self, op: CrossoverOp) -> Self {
        self.crossover = op;
        self
    }
}

/// Per-generation statistics — the series plotted in the paper's Figure 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Best Eq. 2 fitness in the population.
    pub best_fitness: f64,
    /// σ of the best candidate's block times, µs (Figure 5a).
    pub best_std_us: f64,
    /// Splitting-overhead ratio of the best candidate (Figure 5b).
    pub best_overhead: f64,
    /// Distinct candidates profiled so far.
    pub candidates_profiled: usize,
}

/// Result of a GA run.
#[derive(Debug, Clone)]
pub struct GaOutcome {
    /// The fittest split found.
    pub best: SplitSpec,
    /// Its profile.
    pub best_profile: BlockProfile,
    /// Per-generation best-candidate statistics (Figure 5 series).
    pub history: Vec<GenStats>,
    /// Generations actually run (≤ `cfg.generations`; early stop counts).
    pub generations_run: usize,
}

/// Run the genetic algorithm on `graph` over device `dev`.
///
/// ```
/// use split_core::{evolve, GaConfig};
/// use gpu_sim::DeviceConfig;
/// use dnn_graph::{GraphBuilder, TensorShape};
///
/// // A small CNN to split into two blocks.
/// let mut b = GraphBuilder::new("demo", TensorShape::chw(3, 32, 32));
/// let x = b.source();
/// let mut t = b.conv(&x, 16, 3, 1, 1);
/// for _ in 0..6 {
///     let c = b.conv(&t, 16, 3, 1, 1);
///     t = b.relu(&c);
/// }
/// let graph = b.finish();
///
/// let out = evolve(&graph, &DeviceConfig::jetson_nano(), &GaConfig::new(2));
/// assert_eq!(out.best.block_count(), 2);
/// assert!(out.best_profile.overhead_ratio > 0.0);
/// ```
///
/// # Panics
/// Panics if `cfg.blocks < 2` or the model has fewer operators than blocks.
pub fn evolve(graph: &Graph, dev: &DeviceConfig, cfg: &GaConfig) -> GaOutcome {
    evolve_on(graph, &CostTable::build(graph, dev), cfg)
}

/// [`evolve`] against a prebuilt [`CostTable`].
///
/// The table is built once per run and shared by every generation and
/// worker thread, so each candidate profile is `O(cuts)` instead of
/// `O(ops)`. Bit-identical to [`evolve`] on the table's (graph, device)
/// pair — the table reproduces the direct path's float operations in the
/// same order, and the RNG never observes profiling at all. Callers
/// planning several block counts over one pair (e.g.
/// `SplitPlan::offline`) build the table themselves and amortize it
/// across runs.
///
/// # Panics
/// Panics if `cfg.blocks < 2` or the model has fewer operators than blocks.
pub fn evolve_on(graph: &Graph, table: &CostTable, cfg: &GaConfig) -> GaOutcome {
    assert!(
        cfg.blocks >= 2,
        "splitting into {} blocks is a no-op",
        cfg.blocks
    );
    assert!(
        graph.op_count() > cfg.blocks,
        "cannot split {} ops into {} blocks",
        graph.op_count(),
        cfg.blocks
    );
    assert!(cfg.population >= 4, "population too small");

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Every distinct cut vector scored so far.
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    let cuts_per = cfg.blocks - 1;

    let mut population: Vec<SplitSpec> = (0..cfg.population)
        .map(|_| random_spec(graph, cuts_per, cfg.init, &mut rng))
        .collect();

    let mut history = Vec::with_capacity(cfg.generations);
    let mut best: Option<(SplitSpec, BlockProfile, f64)> = None;
    let mut stale = 0usize;
    let mut generations_run = 0usize;

    for generation in 0..cfg.generations {
        generations_run = generation + 1;
        // Profile the whole population in parallel. A profile is a pure
        // `O(cuts)` function of the table, so a repeated candidate is
        // cheaper to score again than to look up in a shared memo.
        let scored: Vec<(SplitSpec, BlockProfile, f64)> = population
            .par_iter()
            .map(|spec| {
                let p = profile_split_on(table, spec);
                let f = fitness(&p);
                (spec.clone(), p, f)
            })
            .collect();
        // Counted after the `collect` barrier, in population order, so
        // this statistic is identical at any SPLIT_THREADS worker count.
        for spec in &population {
            if !seen.contains(spec.cuts()) {
                seen.insert(spec.cuts().to_vec());
            }
        }
        let candidates_profiled = seen.len();

        // Track the global best; the tie-break on cuts keeps runs stable.
        let gen_best = scored
            .iter()
            .max_by(|a, b| a.2.total_cmp(&b.2).then_with(|| b.0.cuts().cmp(a.0.cuts())))
            .expect("non-empty population");
        let improved = match &best {
            None => true,
            Some((_, _, f)) => gen_best.2 > *f + 1e-15,
        };
        if improved {
            best = Some(gen_best.clone());
            stale = 0;
        } else {
            stale += 1;
        }

        let (_, bp, bf) = best.as_ref().unwrap();
        history.push(GenStats {
            generation,
            best_fitness: *bf,
            best_std_us: bp.std_us,
            best_overhead: bp.overhead_ratio,
            candidates_profiled,
        });

        if stale >= cfg.patience {
            break;
        }

        // --- Produce the next generation.
        let elite_n = ((cfg.population as f64 * cfg.elite_frac).round() as usize).max(1);
        let mut ranked: Vec<&(SplitSpec, BlockProfile, f64)> = scored.iter().collect();
        ranked.sort_by(|a, b| b.2.total_cmp(&a.2));
        let mut next: Vec<SplitSpec> = ranked.iter().take(elite_n).map(|t| t.0.clone()).collect();

        while next.len() < cfg.population {
            let pa = tournament(&scored, &mut rng);
            let pb = tournament(&scored, &mut rng);
            let (mut c1, mut c2) = if rng.random_bool(cfg.crossover_prob) {
                crossover(graph, cfg.crossover, pa, pb, cuts_per, cfg.init, &mut rng)
            } else {
                (pa.clone(), pb.clone())
            };
            if rng.random_bool(cfg.mutation_prob) {
                c1 = mutate(graph, &c1, cuts_per, cfg.init, &mut rng);
            }
            if rng.random_bool(cfg.mutation_prob) {
                c2 = mutate(graph, &c2, cuts_per, cfg.init, &mut rng);
            }
            next.push(c1);
            if next.len() < cfg.population {
                next.push(c2);
            }
        }
        population = next;
    }

    let (best, best_profile, _) = best.expect("at least one generation ran");
    GaOutcome {
        best,
        best_profile,
        history,
        generations_run,
    }
}

/// Tournament selection (size 3) by fitness.
fn tournament<'a>(scored: &'a [(SplitSpec, BlockProfile, f64)], rng: &mut StdRng) -> &'a SplitSpec {
    let mut best: Option<&(SplitSpec, BlockProfile, f64)> = None;
    for _ in 0..3 {
        let c = &scored[rng.random_range(0..scored.len())];
        if best.map(|b| c.2 > b.2).unwrap_or(true) {
            best = Some(c);
        }
    }
    &best.unwrap().0
}

/// Sample one cut position under the strategy.
fn sample_position(m: usize, init: InitStrategy, rng: &mut StdRng) -> usize {
    match init {
        InitStrategy::Uniform => rng.random_range(1..m),
        InitStrategy::Guided => {
            // Triangular distribution over [0.1·m, 0.95·m] peaked at 0.45·m
            // — "closer to the middle but slightly towards the beginning"
            // (§2.4), truncated away from the expensive early operators.
            let lo = 0.10 * m as f64;
            let peak = 0.45 * m as f64;
            let hi = 0.95 * m as f64;
            let u: f64 = rng.random_range(0.0..1.0);
            let fc = (peak - lo) / (hi - lo);
            let x = if u < fc {
                lo + (u * (hi - lo) * (peak - lo)).sqrt()
            } else {
                hi - ((1.0 - u) * (hi - lo) * (hi - peak)).sqrt()
            };
            (x.round() as usize).clamp(1, m - 1)
        }
    }
}

/// Random chromosome with exactly `cuts_per` distinct cuts.
fn random_spec(graph: &Graph, cuts_per: usize, init: InitStrategy, rng: &mut StdRng) -> SplitSpec {
    let m = graph.op_count();
    let mut cuts = Vec::with_capacity(cuts_per);
    let mut guard = 0;
    while cuts.len() < cuts_per {
        let c = sample_position(m, init, rng);
        if !cuts.contains(&c) {
            cuts.push(c);
        }
        guard += 1;
        if guard > 64 * cuts_per {
            // Dense fallback for tiny models: take any unused position.
            for c in 1..m {
                if cuts.len() < cuts_per && !cuts.contains(&c) {
                    cuts.push(c);
                }
            }
        }
    }
    cuts.sort_unstable();
    SplitSpec::new(graph, cuts).expect("sampled cuts are valid")
}

/// Repair a raw cut multiset to exactly `cuts_per` distinct in-range cuts,
/// topping up with strategy-sampled positions.
fn repair(
    graph: &Graph,
    raw: Vec<usize>,
    cuts_per: usize,
    init: InitStrategy,
    rng: &mut StdRng,
) -> SplitSpec {
    let m = graph.op_count();
    let mut cuts: Vec<usize> = raw.into_iter().map(|c| c.clamp(1, m - 1)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut guard = 0;
    while cuts.len() < cuts_per {
        let c = sample_position(m, init, rng);
        if !cuts.contains(&c) {
            cuts.push(c);
            cuts.sort_unstable();
        }
        guard += 1;
        if guard > 64 * cuts_per {
            for c in 1..m {
                if cuts.len() < cuts_per && !cuts.contains(&c) {
                    cuts.push(c);
                }
            }
            cuts.sort_unstable();
        }
    }
    cuts.truncate(cuts_per);
    SplitSpec::new(graph, cuts).expect("repaired cuts are valid")
}

/// Recombine two parents under the configured operator, then repair each
/// child to the exact cut count.
fn crossover(
    graph: &Graph,
    op: CrossoverOp,
    a: &SplitSpec,
    b: &SplitSpec,
    cuts_per: usize,
    init: InitStrategy,
    rng: &mut StdRng,
) -> (SplitSpec, SplitSpec) {
    let mut g1 = Vec::with_capacity(cuts_per);
    let mut g2 = Vec::with_capacity(cuts_per);
    match op {
        CrossoverOp::Uniform => {
            for i in 0..cuts_per {
                let (x, y) = (a.cuts()[i], b.cuts()[i]);
                if rng.random_bool(0.5) {
                    g1.push(x);
                    g2.push(y);
                } else {
                    g1.push(y);
                    g2.push(x);
                }
            }
        }
        CrossoverOp::SinglePoint => {
            let point = if cuts_per <= 1 {
                cuts_per
            } else {
                rng.random_range(1..cuts_per)
            };
            for i in 0..cuts_per {
                let (x, y) = (a.cuts()[i], b.cuts()[i]);
                if i < point {
                    g1.push(x);
                    g2.push(y);
                } else {
                    g1.push(y);
                    g2.push(x);
                }
            }
        }
    }
    (
        repair(graph, g1, cuts_per, init, rng),
        repair(graph, g2, cuts_per, init, rng),
    )
}

/// Mutation: shift one cut by a small signed step; guided mode nudges cuts
/// that drifted into the expensive front region back toward the middle.
fn mutate(
    graph: &Graph,
    spec: &SplitSpec,
    cuts_per: usize,
    init: InitStrategy,
    rng: &mut StdRng,
) -> SplitSpec {
    let m = graph.op_count();
    let mut cuts = spec.cuts().to_vec();
    let i = rng.random_range(0..cuts.len());
    let span = (m / 8).max(1) as i64;
    let mut step = rng.random_range(-span..=span);
    if init == InitStrategy::Guided && cuts[i] < m / 10 {
        // Observation 1: early cuts carry large transfers; push backward.
        step = step.abs().max(1);
    }
    let moved = (cuts[i] as i64 + step).clamp(1, (m - 1) as i64) as usize;
    cuts[i] = moved;
    repair(graph, cuts, cuts_per, init, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_graph::{GraphBuilder, TensorShape};

    fn cnn(depth: usize) -> Graph {
        let mut b = GraphBuilder::new("cnn", TensorShape::chw(3, 96, 96));
        let x = b.source();
        let mut t = b.conv(&x, 24, 3, 1, 1);
        for i in 0..depth {
            let stride = if i % 3 == 2 { 2 } else { 1 };
            let ch = 24 * (1 + i as u64 / 3);
            let c = b.conv(&t, ch, 3, stride, 1);
            t = b.relu(&c);
        }
        let g = b.gavgpool(&t);
        let f = b.flatten(&g);
        let _ = b.dense(&f, 10);
        b.finish()
    }

    #[test]
    fn evolve_produces_valid_spec() {
        let g = cnn(12);
        let dev = DeviceConfig::default();
        let out = evolve(&g, &dev, &GaConfig::new(3));
        assert_eq!(out.best.block_count(), 3);
        assert!(out.best_profile.std_us.is_finite());
        assert!(!out.history.is_empty());
        assert_eq!(out.history.len(), out.generations_run);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = cnn(10);
        let dev = DeviceConfig::default();
        let a = evolve(&g, &dev, &GaConfig::new(2).with_seed(7));
        let b = evolve(&g, &dev, &GaConfig::new(2).with_seed(7));
        assert_eq!(a.best.cuts(), b.best.cuts());
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    fn outcome_bit_identical_across_thread_counts() {
        // The pool's determinism contract: seeded RNG stays on the caller's
        // thread and collection is index-ordered, so the whole GaOutcome —
        // best spec, profile, and every history row — is bit-identical at
        // any SPLIT_THREADS.
        let g = cnn(14);
        let dev = DeviceConfig::default();
        let cfg = GaConfig::new(3).with_seed(13);
        let seq = rayon::with_threads(1, || evolve(&g, &dev, &cfg));
        for threads in [2, 8] {
            let par = rayon::with_threads(threads, || evolve(&g, &dev, &cfg));
            assert_eq!(par.best.cuts(), seq.best.cuts(), "threads={threads}");
            assert_eq!(par.best_profile, seq.best_profile, "threads={threads}");
            assert_eq!(par.generations_run, seq.generations_run);
            assert_eq!(par.history.len(), seq.history.len());
            for (a, b) in par.history.iter().zip(&seq.history) {
                assert_eq!(a.generation, b.generation);
                assert_eq!(a.candidates_profiled, b.candidates_profiled);
                assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
                assert_eq!(a.best_std_us.to_bits(), b.best_std_us.to_bits());
                assert_eq!(a.best_overhead.to_bits(), b.best_overhead.to_bits());
            }
        }
    }

    #[test]
    fn best_fitness_never_degrades() {
        let g = cnn(14);
        let dev = DeviceConfig::default();
        let out = evolve(&g, &dev, &GaConfig::new(4));
        for w in out.history.windows(2) {
            assert!(w[1].best_fitness >= w[0].best_fitness - 1e-12);
        }
    }

    #[test]
    fn ga_beats_random_single_candidate() {
        let g = cnn(16);
        let dev = DeviceConfig::default();
        let out = evolve(&g, &dev, &GaConfig::new(2));
        // The GA's best 2-block split must be at least as even as a naive
        // midpoint-by-index split.
        let naive = SplitSpec::new(&g, vec![g.op_count() / 2]).unwrap();
        let naive_p = profiler::profile_split(&g, &naive, &dev);
        assert!(out.best_profile.std_us <= naive_p.std_us + 1e-9);
    }

    #[test]
    fn finds_optimum_on_small_model() {
        // Small enough to check against brute force over all single cuts.
        let g = cnn(8);
        let dev = DeviceConfig::default();
        let out = evolve(&g, &dev, &GaConfig::new(2));
        let brute = (1..g.op_count())
            .map(|c| {
                let p = profiler::profile_split(&g, &SplitSpec::new(&g, vec![c]).unwrap(), &dev);
                crate::fitness::fitness(&p)
            })
            .fold(f64::NEG_INFINITY, f64::max);
        let got = crate::fitness::fitness(&out.best_profile);
        assert!((brute - got) < 1e-9, "GA {got} vs brute {brute}");
    }

    #[test]
    fn early_stop_respects_patience() {
        let g = cnn(8);
        let dev = DeviceConfig::default();
        let mut cfg = GaConfig::new(2);
        cfg.generations = 100;
        cfg.patience = 3;
        let out = evolve(&g, &dev, &cfg);
        assert!(out.generations_run < 100, "ran {}", out.generations_run);
    }

    #[test]
    fn guided_init_samples_avoid_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = 200;
        let mut front = 0;
        for _ in 0..2000 {
            let c = sample_position(m, InitStrategy::Guided, &mut rng);
            assert!((1..m).contains(&c));
            if c < m / 10 {
                front += 1;
            }
        }
        // Guided sampling essentially never lands in the first decile.
        assert!(front < 20, "{front} front samples");
    }

    #[test]
    fn uniform_init_covers_front() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = 200;
        let front = (0..2000)
            .filter(|_| sample_position(m, InitStrategy::Uniform, &mut rng) < m / 10)
            .count();
        // Uniform puts ~9.5% of mass in the first decile.
        assert!(front > 100, "{front}");
    }

    #[test]
    fn single_point_crossover_also_finds_optimum() {
        let g = cnn(8);
        let dev = DeviceConfig::default();
        let cfg = GaConfig::new(2).with_crossover(CrossoverOp::SinglePoint);
        let out = evolve(&g, &dev, &cfg);
        let brute = (1..g.op_count())
            .map(|c| {
                let p = profiler::profile_split(&g, &SplitSpec::new(&g, vec![c]).unwrap(), &dev);
                crate::fitness::fitness(&p)
            })
            .fold(f64::NEG_INFINITY, f64::max);
        let got = crate::fitness::fitness(&out.best_profile);
        assert!(
            (brute - got) < 1e-9,
            "single-point GA {got} vs brute {brute}"
        );
    }

    #[test]
    fn crossover_ops_diverge_but_both_are_valid() {
        let g = cnn(14);
        let dev = DeviceConfig::default();
        for op in [CrossoverOp::Uniform, CrossoverOp::SinglePoint] {
            let out = evolve(&g, &dev, &GaConfig::new(4).with_crossover(op));
            assert_eq!(out.best.block_count(), 4, "{op:?}");
            SplitSpec::new(&g, out.best.cuts().to_vec()).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "no-op")]
    fn one_block_is_rejected() {
        let g = cnn(8);
        evolve(&g, &DeviceConfig::default(), &GaConfig::new(1));
    }
}
