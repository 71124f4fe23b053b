// Property tests: the production relax path (the hierarchical ring scan,
// use_grid on) against the index-free reference scan (use_grid off) on
// seeded random instances across distributions, unit and weighted
// customers, feasible and overflowing; plus relax-count regression guards
// for the pruning itself and the relax grid's resolution default. The
// hierarchy's split-threshold and SharedIndex-injection invariances live
// in test_sspa_hier_equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "flow/sspa.h"
#include "test_util.h"

namespace cca {
namespace {

SspaResult RunGrid(const Problem& problem, SspaConfig config = {}) {
  config.use_grid = true;
  return SolveSspa(problem, config);
}

SspaResult RunReference(const Problem& problem, SspaConfig config = {}) {
  config.use_grid = false;
  return SolveSspa(problem, config);
}

// Candidates the reference scan looked at: it examines every customer on
// every provider pop and either relaxes it or prunes it against the
// certified upper bound, so relaxes + pruned equals the pre-prune dense
// relax count.
std::uint64_t DenseExamined(const SspaResult& reference) {
  return reference.metrics.dijkstra_relaxes + reference.metrics.relaxes_pruned;
}

std::uint64_t Gap(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; }

// Same trajectory up to ties: cost within float tolerance, augmentation
// count exactly equal, pops equal up to boundary ties. (Every Dijkstra run
// ends by popping the path's final customer and then the sink at the same
// key, and zero-reduced-cost arcs after potential updates routinely put
// more nodes at exactly that key; which of those tied nodes the binary
// heap surfaces before the sink depends on insertion history, which
// legitimately differs between the ring scan's cell order and the
// reference's id order. Labels strictly below the path distance — and
// hence the matching and the augmentation structure — are
// enumeration-order independent, which is what the pruning bounds'
// soundness argument certifies. At most a handful of tie pops per run,
// and one run per augmentation, bound the total drift.)
void ExpectSameTrajectory(const SspaResult& got, const SspaResult& want,
                          const std::string& label) {
  EXPECT_NEAR(got.matching.cost(), want.matching.cost(),
              1e-6 * std::max(1.0, want.matching.cost()))
      << label;
  EXPECT_EQ(got.metrics.augmentations, want.metrics.augmentations) << label;
  EXPECT_LE(Gap(got.metrics.dijkstra_pops, want.metrics.dijkstra_pops),
            want.metrics.augmentations)
      << label;
}

void ExpectMatchesReference(const Problem& problem, const std::string& label,
                            const SspaConfig& config = {}) {
  const SspaResult grid = RunGrid(problem, config);
  const SspaResult reference = RunReference(problem, config);
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, grid.matching, &error)) << label << ": " << error;
  EXPECT_TRUE(ValidateMatching(problem, reference.matching, &error)) << label << ": " << error;
  ExpectSameTrajectory(grid, reference, label);
  EXPECT_EQ(grid.unassigned_units, reference.unassigned_units) << label;
  // Every augmentation is either a Theorem-2 prefix unit or one Dijkstra run.
  for (const SspaResult* result : {&grid, &reference}) {
    EXPECT_EQ(result->metrics.augmentations,
              result->metrics.dijkstra_runs + result->metrics.fast_path_assigns)
        << label;
  }
  // The pruned path must never relax (meaningfully) more than the
  // candidates the reference examined; the reference itself may relax far
  // fewer, since its per-candidate upper-bound prune is finer-grained than
  // the cell bounds. The small slack absorbs the tie pops above (each one
  // relaxes its customer-side edges).
  EXPECT_LE(grid.metrics.dijkstra_relaxes, DenseExamined(reference) * 11 / 10 + 8) << label;
  // The reference is index-free and the hierarchy actually engaged in the
  // production path (not equivalence by vacuity).
  EXPECT_EQ(reference.metrics.grid_cursor_cells, 0u) << label;
  EXPECT_EQ(reference.metrics.coarse_cells_descended + reference.metrics.coarse_tails_pruned, 0u)
      << label;
  EXPECT_EQ(reference.metrics.hier_splits, 0u) << label;
  if (problem.customers.size() > 1) {
    EXPECT_GT(grid.metrics.coarse_cells_descended + grid.metrics.coarse_tails_pruned, 0u)
        << label;
  }
}

Problem SkewedProblem(std::size_t nq, std::size_t np, std::int32_t k_lo, std::int32_t k_hi,
                      std::uint64_t seed) {
  Problem problem;
  const auto q_pts = test::SkewedPoints(nq, seed * 3 + 1);
  Rng rng(seed * 5 + 2);
  for (const auto& pos : q_pts) {
    problem.providers.push_back(
        Provider{pos, static_cast<std::int32_t>(rng.UniformInt(k_lo, k_hi))});
  }
  problem.customers = test::SkewedPoints(np, seed * 7 + 3);
  return problem;
}

// Uniform providers over uniform / clustered / skewed customers, with
// capacities drawn from [k_lo, k_hi].
Problem MakeInstance(const char* dist, std::size_t nq, std::size_t np, bool weighted,
                     std::uint64_t seed, std::int32_t k_lo = 2, std::int32_t k_hi = 8) {
  Problem problem;
  const auto q_pts = test::RandomPoints(nq, seed * 7 + 1);
  Rng rng(seed * 31 + 3);
  problem.providers.reserve(nq);
  for (const auto& pos : q_pts) {
    problem.providers.push_back(
        Provider{pos, static_cast<std::int32_t>(rng.UniformInt(k_lo, k_hi))});
  }
  if (std::string(dist) == "clustered") {
    problem.customers = test::ClusteredPoints(np, seed * 13 + 2);
  } else if (std::string(dist) == "skewed") {
    problem.customers = test::SkewedPoints(np, seed * 13 + 2);
  } else {
    problem.customers = test::RandomPoints(np, seed * 13 + 2);
  }
  if (weighted) {
    problem.weights.resize(np);
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 4));
  }
  return problem;
}

TEST(SspaGridEquivalence, UniformInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 5 + seed;
    spec.np = 60 + 15 * seed;
    spec.k_lo = 1;
    spec.k_hi = static_cast<std::int32_t>(2 + seed % 4);
    spec.seed = seed;
    ExpectMatchesReference(test::RandomProblem(spec), "uniform seed " + std::to_string(seed));
  }
}

TEST(SspaGridEquivalence, GaussianClusteredInstances) {
  for (std::uint64_t seed = 10; seed <= 15; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 8;
    spec.np = 120;
    spec.k_lo = 2;
    spec.k_hi = 8;
    spec.clustered_q = true;
    spec.clustered_p = true;
    spec.seed = seed;
    ExpectMatchesReference(test::RandomProblem(spec), "clustered seed " + std::to_string(seed));
  }
}

TEST(SspaGridEquivalence, SkewedInstances) {
  for (std::uint64_t seed = 20; seed <= 24; ++seed) {
    ExpectMatchesReference(SkewedProblem(7, 90, 1, 5, seed), "skewed seed " + std::to_string(seed));
  }
}

TEST(SspaGridEquivalence, WeightedCustomers) {
  for (std::uint64_t seed = 30; seed <= 35; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 6;
    spec.np = 40;
    spec.k_lo = 3;
    spec.k_hi = 12;
    spec.seed = seed;
    Problem problem = test::RandomProblem(spec);
    Rng rng(seed);
    problem.weights.resize(problem.customers.size());
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 5));
    ExpectMatchesReference(problem, "weighted seed " + std::to_string(seed));
  }
}

TEST(SspaGridEquivalence, ScarceCapacity) {
  // gamma limited by capacity: most customers stay unassigned, so the sink
  // label stays small and pruning is at its most aggressive.
  test::InstanceSpec spec;
  spec.nq = 3;
  spec.np = 150;
  spec.k_lo = 1;
  spec.k_hi = 2;
  spec.seed = 77;
  ExpectMatchesReference(test::RandomProblem(spec), "scarce");
}

TEST(SspaGridEquivalence, DegenerateGeometries) {
  // Collinear customers (zero-height grid) and coincident points.
  Problem collinear;
  collinear.providers = {Provider{{0, 0}, 2}, Provider{{100, 0}, 2}};
  for (int i = 0; i < 20; ++i) collinear.customers.push_back(Point{5.0 * i, 0.0});
  ExpectMatchesReference(collinear, "collinear");

  // Two coincident providers, the first filling on the first (zero-length)
  // edge: the Theorem-2 prefix stops there, so the remaining units go
  // through Dijkstra and the ring scan engages. (A lone provider whose
  // capacity is gamma would be solved by the prefix alone.)
  Problem coincident;
  coincident.providers = {Provider{{10, 10}, 1}, Provider{{10, 10}, 3}};
  for (int i = 0; i < 5; ++i) coincident.customers.push_back(Point{10, 10});
  ExpectMatchesReference(coincident, "coincident");
}

// Randomized across distributions x unit/weighted, over two instance
// families: mixed-skew providers over the same distribution as the
// customers, and uniform providers over each customer distribution with
// growing sizes. The per-cell tau floors, the coarse-tail rejection and
// the fused kernel may only skip candidates whose label could not have
// influenced the run, so the trajectory must match the reference's.
TEST(SspaGridEquivalence, RandomizedAcrossDistributionsAndWeights) {
  for (const bool weighted : {false, true}) {
    for (const char* dist : {"uniform", "clustered", "skewed"}) {
      for (std::uint64_t seed = 50; seed <= 52; ++seed) {
        Problem problem;
        if (std::string(dist) == "skewed") {
          problem = SkewedProblem(7, 110, 1, 5, seed);
        } else {
          test::InstanceSpec spec;
          spec.nq = 8;
          spec.np = 130;
          spec.k_lo = 2;
          spec.k_hi = 7;
          spec.clustered_q = std::string(dist) == "clustered";
          spec.clustered_p = spec.clustered_q;
          spec.seed = seed;
          problem = test::RandomProblem(spec);
        }
        if (weighted) {
          Rng rng(seed * 11 + 1);
          problem.weights.resize(problem.customers.size());
          for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 4));
        }
        ExpectMatchesReference(problem, std::string(dist) + (weighted ? " weighted" : " unit") +
                                            " seed " + std::to_string(seed));
      }
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Problem problem = MakeInstance(dist, 6 + seed, 120 + 60 * seed, weighted, seed);
        ExpectMatchesReference(problem, std::string(dist) + (weighted ? " weighted" : " unit") +
                                            " growing seed " + std::to_string(seed));
      }
    }
  }
}

// The sizes where the pruning matters: |Q|=50, |P|=5000, k=40 (the batch
// benchmark's capacity-scarce shape) on clustered and skewed customers.
// Release only; Debug runs a smaller shape so the unoptimised quadratic
// reference stays within seconds.
TEST(SspaGridEquivalence, ClusteredAndSkewedAtScale) {
#ifdef NDEBUG
  const std::size_t nq = 50, np = 5000;
  const std::int32_t k = 40;
#else
  const std::size_t nq = 20, np = 1000;
  const std::int32_t k = 20;
#endif
  for (const char* dist : {"clustered", "skewed"}) {
    const Problem problem = MakeInstance(dist, nq, np, /*weighted=*/false, 61, k, k);
    ExpectMatchesReference(problem, std::string(dist) + " at scale");
  }
}

// Infeasible weighted instance with overflow routing: the virtual provider
// absorbs exactly the overflow on both paths, so the real sub-matchings,
// the augmentation structure and the unassigned ledger must agree.
TEST(SspaGridEquivalence, WeightedOverflowInfeasible) {
  Problem problem = MakeInstance("clustered", 6, 90, /*weighted=*/true, 67, 1, 3);
  std::int64_t capacity = 0;
  for (const Provider& q : problem.providers) capacity += q.capacity;
  ASSERT_LT(capacity, problem.TotalWeight());
  SspaConfig config;
  config.allow_overflow = true;
  ExpectMatchesReference(problem, "weighted overflow", config);
  const SspaResult grid = RunGrid(problem, config);
  EXPECT_EQ(grid.unassigned_units, problem.TotalWeight() - capacity);
}

// The pruning regression guard: on a mid-size uniform instance the grid
// path must relax at least 5x fewer edges than the candidates the
// reference scan has to examine.
TEST(SspaGridEquivalence, PruningActuallyPrunes) {
  test::InstanceSpec spec;
  spec.nq = 20;
  spec.np = 2000;
  spec.k_lo = 10;
  spec.k_hi = 10;
  spec.seed = 42;
  const Problem problem = test::RandomProblem(spec);
  const SspaResult grid = RunGrid(problem);
  const SspaResult reference = RunReference(problem);
  EXPECT_NEAR(grid.matching.cost(), reference.matching.cost(),
              1e-6 * reference.matching.cost());
  EXPECT_LE(grid.metrics.dijkstra_relaxes * 5, DenseExamined(reference))
      << "grid=" << grid.metrics.dijkstra_relaxes << " reference=" << DenseExamined(reference);
  EXPECT_GT(grid.metrics.relaxes_pruned, 0u);
  EXPECT_GT(grid.metrics.grid_rings_scanned, 0u);
  EXPECT_GT(grid.metrics.grid_cursor_cells, 0u);
  // The fused kernel keeps the materialised-distance count at the same
  // order as the surviving relaxes (it can sit below dijkstra_relaxes,
  // which also counts the distance-free customer-side reverse/sink
  // relaxes) — nowhere near the examined candidates.
  EXPECT_GT(grid.metrics.cells_pruned, 0u);
  EXPECT_GT(grid.metrics.distances_computed, 0u);
  EXPECT_LE(grid.metrics.distances_computed, grid.metrics.dijkstra_relaxes);
  EXPECT_LE(grid.metrics.distances_computed * 5, DenseExamined(reference))
      << "distances=" << grid.metrics.distances_computed;
}

// The reference scan's upper-bound prune (index-free run_ub trick): it
// must actually skip heap work on a capacity-scarce instance, without
// changing the optimum — while still paying a distance for every lane it
// scans (examined = relaxed + pruned; the handful of saturated-serving
// lanes are scanned but counted as neither).
TEST(SspaGridEquivalence, DenseUpperBoundPruneActive) {
  test::InstanceSpec spec;
  spec.nq = 10;
  spec.np = 800;
  spec.k_lo = 2;
  spec.k_hi = 4;
  spec.seed = 7;
  const Problem problem = test::RandomProblem(spec);
  const SspaResult reference = RunReference(problem);
  EXPECT_GT(reference.metrics.relaxes_pruned, 0u);
  EXPECT_LT(reference.metrics.dijkstra_relaxes, DenseExamined(reference));
  EXPECT_GE(reference.metrics.distances_computed, DenseExamined(reference));
  EXPECT_NEAR(reference.matching.cost(), RunGrid(problem).matching.cost(),
              1e-6 * std::max(1.0, reference.matching.cost()));
}

// grid_target_per_cell <= 0 selects the default fine resolution (4.0); it
// does not auto-tune. A 0.0 target must therefore build the same grid as
// the default and give a bit-identical solve.
TEST(SspaGridEquivalence, ZeroTargetUsesDefaultResolution) {
  ASSERT_EQ(SspaConfig{}.grid_target_per_cell, 4.0);
  for (std::uint64_t seed = 40; seed <= 43; ++seed) {
    const Problem problem = SkewedProblem(7, 120, 1, 5, seed);
    SspaConfig zero;
    zero.grid_target_per_cell = 0.0;
    const SspaResult got = RunGrid(problem, zero);
    const SspaResult want = RunGrid(problem);
    EXPECT_EQ(got.matching.cost(), want.matching.cost()) << "seed " << seed;
    EXPECT_EQ(got.metrics.dijkstra_pops, want.metrics.dijkstra_pops) << "seed " << seed;
    EXPECT_EQ(got.metrics.dijkstra_relaxes, want.metrics.dijkstra_relaxes) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cca
