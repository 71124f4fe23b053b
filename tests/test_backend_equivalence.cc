// Cross-backend equivalence for the discovery layer: RIA/NIA/IDA must
// produce cost-identical matchings whether candidates come from the R-tree
// (plain or grouped-ANN) or from grid ring cursors, across uniform,
// clustered and skewed instances, unit and weighted; greedy must agree
// while it retires saturated providers' streams; and empty or one-provider
// fleets must build on every backend. Plus the node-access regression
// guard: at |P|=10k memory-resident, the grid backend must do >= 5x less
// index work than independent R-tree NN iterators.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "common/rng.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "core/matching.h"
#include "core/nn_source.h"
#include "test_util.h"

namespace cca {
namespace {

ExactConfig BackendConfig(DiscoveryBackend backend) {
  ExactConfig config;
  config.discovery_backend = backend;
  return config;
}

void ExpectCostEqual(const Problem& problem, const ExactResult& a, const ExactResult& b,
                     const std::string& label) {
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, a.matching, &error)) << label << ": " << error;
  EXPECT_TRUE(ValidateMatching(problem, b.matching, &error)) << label << ": " << error;
  EXPECT_EQ(a.matching.size(), b.matching.size()) << label;
  EXPECT_NEAR(a.matching.cost(), b.matching.cost(),
              1e-6 * std::max(1.0, a.matching.cost()))
      << label;
}

void ExpectBackendsEquivalent(const Problem& problem, const std::string& label) {
  auto db = test::MakeDb(problem);
  const ExactConfig grouped = BackendConfig(DiscoveryBackend::kRTreeGrouped);
  const ExactConfig plain = BackendConfig(DiscoveryBackend::kRTreePlain);
  const ExactConfig grid = BackendConfig(DiscoveryBackend::kGrid);

  const ExactResult ida_grouped = SolveIda(problem, db.get(), grouped);
  const ExactResult ida_plain = SolveIda(problem, db.get(), plain);
  const ExactResult ida_grid = SolveIda(problem, db.get(), grid);
  ExpectCostEqual(problem, ida_grouped, ida_plain, label + " ida plain");
  ExpectCostEqual(problem, ida_grouped, ida_grid, label + " ida grid");
  // The grid backend reads the memory-resident point array only.
  EXPECT_EQ(ida_grid.metrics.node_accesses, 0u) << label;
  EXPECT_GT(ida_grid.metrics.grid_cursor_cells, 0u) << label;
  EXPECT_EQ(ida_grid.metrics.index_node_accesses, ida_grid.metrics.grid_cursor_cells) << label;

  const ExactResult nia_grouped = SolveNia(problem, db.get(), grouped);
  const ExactResult nia_plain = SolveNia(problem, db.get(), plain);
  const ExactResult nia_grid = SolveNia(problem, db.get(), grid);
  ExpectCostEqual(problem, nia_grouped, nia_plain, label + " nia plain");
  ExpectCostEqual(problem, nia_grouped, nia_grid, label + " nia grid");

  const ExactResult ria_grouped = SolveRia(problem, db.get(), grouped);
  const ExactResult ria_plain = SolveRia(problem, db.get(), plain);
  const ExactResult ria_grid = SolveRia(problem, db.get(), grid);
  ExpectCostEqual(problem, ria_grouped, ria_plain, label + " ria plain");
  ExpectCostEqual(problem, ria_grouped, ria_grid, label + " ria grid");
  EXPECT_EQ(ria_grid.metrics.node_accesses, 0u) << label;
  // All backends issue one (annular) range search per provider per batch.
  EXPECT_EQ(ria_grouped.metrics.range_searches, ria_plain.metrics.range_searches) << label;
  EXPECT_EQ(ria_grouped.metrics.range_searches, ria_grid.metrics.range_searches) << label;
}

TEST(BackendEquivalence, UniformUnit) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 6 + seed;
    spec.np = 80 + 20 * seed;
    spec.k_lo = 1;
    spec.k_hi = 4;
    spec.seed = seed;
    ExpectBackendsEquivalent(test::RandomProblem(spec), "uniform seed " + std::to_string(seed));
  }
}

TEST(BackendEquivalence, ClusteredUnit) {
  for (std::uint64_t seed = 10; seed <= 12; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 8;
    spec.np = 150;
    spec.k_lo = 2;
    spec.k_hi = 8;
    spec.clustered_q = true;
    spec.clustered_p = true;
    spec.seed = seed;
    ExpectBackendsEquivalent(test::RandomProblem(spec), "clustered seed " + std::to_string(seed));
  }
}

TEST(BackendEquivalence, SkewedUnit) {
  for (std::uint64_t seed = 20; seed <= 22; ++seed) {
    Problem problem;
    Rng rng(seed * 5 + 2);
    for (const auto& pos : test::SkewedPoints(7, seed * 3 + 1)) {
      problem.providers.push_back(
          Provider{pos, static_cast<std::int32_t>(rng.UniformInt(1, 5))});
    }
    problem.customers = test::SkewedPoints(110, seed * 7 + 3);
    ExpectBackendsEquivalent(problem, "skewed seed " + std::to_string(seed));
  }
}

TEST(BackendEquivalence, WeightedCustomers) {
  for (std::uint64_t seed = 30; seed <= 32; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 6;
    spec.np = 60;
    spec.k_lo = 3;
    spec.k_hi = 10;
    spec.seed = seed;
    Problem problem = test::RandomProblem(spec);
    Rng rng(seed);
    problem.weights.resize(problem.customers.size());
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 4));
    ExpectBackendsEquivalent(problem, "weighted seed " + std::to_string(seed));
  }
}

TEST(BackendEquivalence, PlainBackendAndGreedyStillWork) {
  test::InstanceSpec spec;
  spec.nq = 6;
  spec.np = 90;
  spec.seed = 55;
  const Problem problem = test::RandomProblem(spec);
  auto db = test::MakeDb(problem);
  const ExactResult plain = SolveIda(problem, db.get(), BackendConfig(DiscoveryBackend::kRTreePlain));
  const ExactResult grid = SolveIda(problem, db.get(), BackendConfig(DiscoveryBackend::kGrid));
  ExpectCostEqual(problem, plain, grid, "plain vs grid");
  const double g1 =
      SolveGreedySm(problem, db.get(), BackendConfig(DiscoveryBackend::kRTreePlain)).matching.cost();
  const double g2 =
      SolveGreedySm(problem, db.get(), BackendConfig(DiscoveryBackend::kGrid)).matching.cost();
  EXPECT_NEAR(g1, g2, 1e-9);
}

// Greedy retires providers as their capacity saturates — the end-to-end
// exercise of EdgeFrontier::Retire, on a per-provider grid stream and an
// R-tree stream.
TEST(BackendEquivalence, GreedyRetiresProvidersAndMatchesAcrossBackends) {
  test::InstanceSpec spec;
  spec.nq = 10;
  spec.np = 200;
  spec.k_lo = 2;
  spec.k_hi = 5;
  spec.seed = 71;
  const Problem problem = test::RandomProblem(spec);
  auto db = test::MakeDb(problem);
  const ExactResult grid =
      SolveGreedySm(problem, db.get(), BackendConfig(DiscoveryBackend::kGrid));
  const ExactResult plain =
      SolveGreedySm(problem, db.get(), BackendConfig(DiscoveryBackend::kRTreePlain));
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, grid.matching, &error)) << error;
  EXPECT_EQ(grid.matching.size(), plain.matching.size());
  EXPECT_NEAR(grid.matching.cost(), plain.matching.cost(), 1e-9);
}

// Degenerate fleets build through the factory on every backend: no
// provider at all, and a single provider (a one-member Hilbert group
// under kRTreeGrouped).
TEST(BackendEquivalence, EmptyAndSingleProviderSetsBuildThroughFactory) {
  for (const DiscoveryBackend backend :
       {DiscoveryBackend::kRTreePlain, DiscoveryBackend::kRTreeGrouped, DiscoveryBackend::kGrid}) {
    for (const std::size_t nq : {std::size_t{0}, std::size_t{1}}) {
      const std::string label =
          "backend " + std::to_string(static_cast<int>(backend)) + " nq " + std::to_string(nq);
      Problem problem;
      problem.customers = test::RandomPoints(60, 53);
      for (const Point& pos : test::RandomPoints(nq, 54)) {
        problem.providers.push_back(Provider{pos, 3});
      }
      auto db = test::MakeDb(problem);
      const ExactConfig config = BackendConfig(backend);
      Metrics metrics;
      auto source = MakeNnSource(db.get(), problem, config, &metrics);
      ASSERT_NE(source, nullptr) << label;
      EXPECT_EQ(metrics.grid_cursor_cells, 0u) << label;
      if (nq == 1) {
        // The lone provider's stream is exact: nearest customer first.
        double nearest = std::numeric_limits<double>::infinity();
        for (const Point& p : problem.customers) {
          nearest = std::min(nearest, Distance(problem.providers[0].pos, p));
        }
        EXPECT_NEAR(source->PeekDistance(0), nearest, 1e-9) << label;
        const auto hit = source->NextNN(0);
        ASSERT_TRUE(hit.has_value()) << label;
        EXPECT_NEAR(hit->dist, nearest, 1e-9) << label;
      }
      const ExactResult ida = SolveIda(problem, db.get(), config);
      std::string error;
      EXPECT_TRUE(ValidateMatching(problem, ida.matching, &error)) << label << ": " << error;
      EXPECT_EQ(ida.matching.size(), static_cast<std::int64_t>(3 * nq)) << label;
    }
  }
}

// The acceptance-bar regression guard: grid-backed IDA at |P|=10k
// (memory-resident customers) must do >= 5x fewer index accesses (grid
// cells fetched) than PlainNnSource's R-tree node reads, with identical
// cost.
TEST(BackendEquivalence, GridCutsIndexAccessesAtTenThousandCustomers) {
  test::InstanceSpec spec;
  spec.nq = 100;
  spec.np = 10000;
  spec.k_lo = 10;
  spec.k_hi = 10;
  spec.seed = 123;
  const Problem problem = test::RandomProblem(spec);
  auto db = test::MakeDb(problem);  // buffer covers the whole tree

  const ExactResult plain =
      SolveIda(problem, db.get(), BackendConfig(DiscoveryBackend::kRTreePlain));
  const ExactResult grid = SolveIda(problem, db.get(), BackendConfig(DiscoveryBackend::kGrid));
  ExpectCostEqual(problem, plain, grid, "10k regression");
  EXPECT_GT(plain.metrics.index_node_accesses, 0u);
  EXPECT_GT(grid.metrics.index_node_accesses, 0u);
  EXPECT_LE(grid.metrics.index_node_accesses * 5, plain.metrics.index_node_accesses)
      << "grid cells=" << grid.metrics.index_node_accesses
      << " rtree nodes=" << plain.metrics.index_node_accesses;
}

}  // namespace
}  // namespace cca
