// SSPA baseline tests: paper worked example, optimality against oracles,
// weighted customers, metric sanity, and the Theorem-2 prefix of cold
// solves (its length against a brute-force greedy, its closed-form duals,
// the warm chain and the deadline after it).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "flow/hungarian.h"
#include "flow/oracle.h"
#include "flow/sspa.h"
#include "test_util.h"

namespace cca {
namespace {

TEST(SspaTest, PaperFigure2Example) {
  // Collinear embedding of the paper's Figure 2: q1.k=1, q2.k=2,
  // d(q1,p1)=4, d(q1,p2)=3, d(q2,p2)=7. The greedy first path (q1,p2) must
  // be rerouted by the second augmentation, as in the paper's walk-through.
  Problem problem;
  problem.providers = {Provider{{0.0, 0.0}, 1}, Provider{{10.0, 0.0}, 2}};
  problem.customers = {Point{-4.0, 0.0}, Point{3.0, 0.0}};
  const SspaResult result = SolveSspa(problem);
  // gamma = min(2, 3) = 2 augmenting iterations; optimal matching is
  // (q1,p1) + (q2,p2) with cost 11 (paper Section 2.2 walk-through).
  EXPECT_EQ(result.matching.size(), 2);
  EXPECT_DOUBLE_EQ(result.matching.cost(), 11.0);
  EXPECT_EQ(result.conceptual_edges, 4u);
  bool q1_p1 = false, q2_p2 = false;
  for (const auto& pair : result.matching.pairs) {
    if (pair.provider == 0 && pair.customer == 0) q1_p1 = true;
    if (pair.provider == 1 && pair.customer == 1) q2_p2 = true;
  }
  EXPECT_TRUE(q1_p1);
  EXPECT_TRUE(q2_p2);
}

TEST(SspaTest, SecondPathReroutesThroughResidualEdge) {
  // Instance where the optimal solution requires undoing a greedy choice:
  // p0 sits between q0 and q1; q0 must give p0 up.
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}, Provider{{100, 0}, 1}};
  problem.customers = {Point{45, 0}, Point{10, 0}};
  // Greedy by closest pair: (q0,p1)=10 then (q1,p0)=55: total 65.
  // Optimal: (q0,p1)=10, (q1,p0)=55 -> same here. Make it interesting:
  problem.customers = {Point{45, 0}, Point{55, 0}};
  // Greedy: (q0,p0)=45, then (q1,p1)=45: total 90. Also optimal... choose
  // an asymmetric instance instead:
  problem.providers = {Provider{{0, 0}, 1}, Provider{{60, 0}, 1}};
  problem.customers = {Point{20, 0}, Point{30, 0}};
  // Options: q0-p0 + q1-p1 = 20 + 30 = 50; q0-p1 + q1-p0 = 30 + 40 = 70.
  const SspaResult result = SolveSspa(problem);
  EXPECT_DOUBLE_EQ(result.matching.cost(), 50.0);
  EXPECT_TRUE(IsOptimalMatching(problem, result.matching));
}

struct SspaCase {
  std::size_t nq;
  std::size_t np;
  std::int32_t k_lo;
  std::int32_t k_hi;
  std::uint64_t seed;
};

class SspaRandomTest : public ::testing::TestWithParam<SspaCase> {};

TEST_P(SspaRandomTest, OptimalAndValid) {
  const auto& c = GetParam();
  test::InstanceSpec spec;
  spec.nq = c.nq;
  spec.np = c.np;
  spec.k_lo = c.k_lo;
  spec.k_hi = c.k_hi;
  spec.seed = c.seed;
  const Problem problem = test::RandomProblem(spec);
  const SspaResult result = SolveSspa(problem);
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, result.matching, &error)) << error;
  EXPECT_TRUE(IsOptimalMatching(problem, result.matching));
  // Cross-check the cost against the independent network solver.
  const Matching oracle = SolveWithNetworkOracle(problem);
  EXPECT_NEAR(result.matching.cost(), oracle.cost(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, SspaRandomTest,
    ::testing::Values(SspaCase{2, 10, 1, 2, 1},     // scarce capacity
                      SspaCase{4, 20, 10, 10, 2},   // abundant capacity
                      SspaCase{5, 25, 5, 5, 3},     // sum k == |P|
                      SspaCase{3, 30, 1, 6, 4},     // mixed
                      SspaCase{8, 40, 2, 8, 5},     //
                      SspaCase{1, 15, 7, 7, 6},     // single provider
                      SspaCase{10, 10, 1, 1, 7},    // perfect matching
                      SspaCase{6, 18, 2, 4, 8}));

TEST(SspaTest, WeightedCustomersMatchOracle) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 4;
    spec.np = 8;
    spec.k_lo = 2;
    spec.k_hi = 8;
    spec.seed = seed;
    Problem problem = test::RandomProblem(spec);
    Rng rng(seed);
    problem.weights.resize(problem.customers.size());
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 4));
    const SspaResult result = SolveSspa(problem);
    std::string error;
    EXPECT_TRUE(ValidateMatching(problem, result.matching, &error)) << error;
    const Matching oracle = SolveWithNetworkOracle(problem);
    EXPECT_NEAR(result.matching.cost(), oracle.cost(), 1e-6) << "seed " << seed;
  }
}

TEST(SspaTest, ZeroCapacityProvidersIgnored) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 0}, Provider{{100, 0}, 2}};
  problem.customers = {Point{1, 0}, Point{2, 0}};
  const SspaResult result = SolveSspa(problem);
  EXPECT_EQ(result.matching.size(), 2);
  for (const auto& pair : result.matching.pairs) EXPECT_EQ(pair.provider, 1);
}

TEST(SspaTest, EmptyCustomerSet) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 3}};
  const SspaResult result = SolveSspa(problem);
  EXPECT_EQ(result.matching.size(), 0);
}

TEST(SspaTest, MetricsPopulated) {
  test::InstanceSpec spec;
  spec.nq = 4;
  spec.np = 40;
  spec.seed = 9;
  const Problem problem = test::RandomProblem(spec);
  const SspaResult result = SolveSspa(problem);
  EXPECT_EQ(result.conceptual_edges, 4u * 40u);
  // A cold unit solve splits its augmentations between the Theorem-2
  // prefix and Dijkstra runs; here a provider fills before gamma, so both
  // take part.
  EXPECT_GT(result.metrics.dijkstra_runs, 0u);
  EXPECT_GT(result.metrics.fast_path_assigns, 0u);
  EXPECT_EQ(result.metrics.augmentations,
            result.metrics.dijkstra_runs + result.metrics.fast_path_assigns);
  EXPECT_GE(result.metrics.dijkstra_pops, result.metrics.dijkstra_runs);
}

// Successive shortest path costs are non-decreasing, so the matching cost
// must be convex in gamma: solving prefixes cannot cost more per unit.
TEST(SspaTest, CostMonotoneInCapacity) {
  test::InstanceSpec spec;
  spec.nq = 3;
  spec.np = 30;
  spec.k_lo = 2;
  spec.k_hi = 2;
  spec.seed = 11;
  Problem problem = test::RandomProblem(spec);
  const double cost_small = SolveSspa(problem).matching.cost();
  for (auto& q : problem.providers) q.capacity = 4;
  const double cost_large = SolveSspa(problem).matching.cost();
  // More capacity => larger gamma => strictly more assigned pairs => cost
  // can only grow (every pair has non-negative distance).
  EXPECT_GE(cost_large, cost_small - 1e-9);
}


// --- Theorem-2 prefix ---------------------------------------------------------

SspaResult Solve(const Problem& problem, bool use_grid, SspaConfig config = {}) {
  config.use_grid = use_grid;
  return SolveSspa(problem, config);
}

// Independent brute-force greedy: every |Q|*|P| edge sorted by
// (dist, q, p), each assigned when its customer is free, stopping right
// after the assignment that fills a provider or reaches gamma. Returns
// the number of units assigned (0 when some provider starts full).
std::int64_t BruteForceGreedyPrefix(const Problem& problem) {
  struct Edge {
    double dist;
    std::size_t q, p;
  };
  std::vector<Edge> edges;
  for (std::size_t q = 0; q < problem.providers.size(); ++q) {
    if (problem.providers[q].capacity <= 0) return 0;
    for (std::size_t p = 0; p < problem.customers.size(); ++p) {
      edges.push_back(Edge{Distance(problem.providers[q].pos, problem.customers[p]), q, p});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.q != b.q ? a.q < b.q : a.p < b.p;
  });
  std::vector<bool> taken(problem.customers.size(), false);
  std::vector<std::int64_t> used(problem.providers.size(), 0);
  std::int64_t assigned = 0;
  for (const Edge& e : edges) {
    if (assigned == problem.Gamma()) break;
    if (taken[e.p]) continue;
    taken[e.p] = true;
    ++assigned;
    if (++used[e.q] == problem.providers[e.q].capacity) break;
  }
  return assigned;
}

// Checks a unit solve's exported duals against its matching, with the
// solver's own slack eps = 1e-7 * max(1, dist + tau_p) on the reduced
// cost r = dist - tau_q + tau_p:
//   * r >= -eps on every residual forward arc (every unmatched pair);
//   * r <= eps on every matched arc (its residual reverse arc), and
//     |r| <= eps when `tight_matched` -- the closed form of a solve that
//     ended inside the prefix leaves every matched arc tight, while later
//     Dijkstra potential updates may raise a serving provider's dual
//     past its customer's;
//   * tau >= 0, and tau_p == 0 on customers left unserved (their sink
//     arc relaxes at -tau_p, with tau_t = 0 on cold solves).
void ExpectDualsCertify(const Problem& problem, const SspaResult& result, bool tight_matched,
                        const std::string& label) {
  const SspaPotentials& pot = result.potentials;
  ASSERT_EQ(pot.tau_q.size(), problem.providers.size()) << label;
  ASSERT_EQ(pot.tau_p.size(), problem.customers.size()) << label;
  std::vector<std::int32_t> serving(problem.customers.size(), -1);
  for (const MatchPair& pair : result.matching.pairs) {
    serving[static_cast<std::size_t>(pair.customer)] = pair.provider;
  }
  for (const double tau : pot.tau_q) EXPECT_GE(tau, 0.0) << label;
  for (std::size_t p = 0; p < problem.customers.size(); ++p) {
    EXPECT_GE(pot.tau_p[p], 0.0) << label;
    if (serving[p] < 0) EXPECT_EQ(pot.tau_p[p], 0.0) << label << " unserved p=" << p;
    for (std::size_t q = 0; q < problem.providers.size(); ++q) {
      const double dist = Distance(problem.providers[q].pos, problem.customers[p]);
      const double r = dist - pot.tau_q[q] + pot.tau_p[p];
      const double eps = 1e-7 * std::max(1.0, dist + pot.tau_p[p]);
      if (serving[p] == static_cast<std::int32_t>(q)) {
        EXPECT_LE(r, eps) << label << " matched q=" << q << " p=" << p;
        if (tight_matched) EXPECT_GE(r, -eps) << label << " matched q=" << q << " p=" << p;
      } else {
        EXPECT_GE(r, -eps) << label << " forward q=" << q << " p=" << p;
      }
    }
  }
}

// Runs both relax paths on `problem` and checks the prefix invariants
// shared by every instance: the cost equals `oracle_cost`, the gated
// augmentation count splits exactly into prefix units and Dijkstra runs,
// and the exported duals certify the matching.
void ExpectPrefixSolve(const Problem& problem, double oracle_cost, const std::string& label) {
  for (const bool use_grid : {true, false}) {
    const std::string tag = label + (use_grid ? " grid" : " reference");
    const SspaResult result = Solve(problem, use_grid);
    std::string error;
    EXPECT_TRUE(ValidateMatching(problem, result.matching, &error)) << tag << ": " << error;
    EXPECT_NEAR(result.matching.cost(), oracle_cost, 1e-6 * std::max(1.0, oracle_cost)) << tag;
    EXPECT_EQ(result.metrics.augmentations, static_cast<std::uint64_t>(problem.Gamma())) << tag;
    EXPECT_EQ(result.metrics.augmentations,
              result.metrics.dijkstra_runs + result.metrics.fast_path_assigns)
        << tag;
    ExpectDualsCertify(problem, result, result.metrics.dijkstra_runs == 0, tag);
  }
}

// Random real coordinates carry no distance ties, so the prefix is unique:
// both relax paths must assign exactly the brute-force greedy's units,
// then finish at the Hungarian optimum. Covers the scarce regime
// (gamma = sum k < |P|), the ample one (gamma = |P|) and the balanced one.
TEST(SspaPrefixTest, LengthMatchesBruteForceGreedyOnTieFreeInstances) {
  struct Shape {
    std::size_t nq, np;
    std::int32_t k_lo, k_hi;
  };
  const Shape shapes[] = {{3, 40, 2, 5},  {6, 60, 3, 6},   {5, 30, 10, 20},
                          {4, 24, 6, 6},  {8, 50, 1, 3},   {2, 35, 20, 30}};
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      test::InstanceSpec spec;
      spec.nq = shape.nq;
      spec.np = shape.np;
      spec.k_lo = shape.k_lo;
      spec.k_hi = shape.k_hi;
      spec.seed = seed;
      const Problem problem = test::RandomProblem(spec);
      const std::string label = std::to_string(shape.nq) + "x" + std::to_string(shape.np) +
                                " seed " + std::to_string(seed);
      const std::int64_t greedy = BruteForceGreedyPrefix(problem);
      ASSERT_GT(greedy, 0) << label;
      for (const bool use_grid : {true, false}) {
        EXPECT_EQ(Solve(problem, use_grid).metrics.fast_path_assigns,
                  static_cast<std::uint64_t>(greedy))
            << label << (use_grid ? " grid" : " reference");
      }
      ExpectPrefixSolve(problem, SolveHungarian(problem).matching.cost(), label);
    }
  }
}

// Integer 4x4 lattices put many edges at exactly equal lengths. The
// reference path breaks ties like the brute force, (dist, q, p), so its
// prefix length must match; the grid stream may order ties spanning
// coarse cells differently, which can change which equally short edge is
// taken but never the optimum or the duals' validity.
TEST(SspaPrefixTest, TieHeavyLatticesStayOptimal) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Problem problem;
    const auto lattice = [&] {
      return Point{static_cast<double>(rng.UniformInt(0, 3)),
                   static_cast<double>(rng.UniformInt(0, 3))};
    };
    const std::size_t nq = 2 + seed % 3;
    for (std::size_t q = 0; q < nq; ++q) {
      problem.providers.push_back(
          Provider{lattice(), static_cast<std::int32_t>(rng.UniformInt(1, 4))});
    }
    for (int p = 0; p < 7; ++p) problem.customers.push_back(lattice());
    const std::string label = "lattice seed " + std::to_string(seed);
    EXPECT_EQ(Solve(problem, /*use_grid=*/false).metrics.fast_path_assigns,
              static_cast<std::uint64_t>(BruteForceGreedyPrefix(problem)))
        << label;
    ExpectPrefixSolve(problem, BruteForceOptimal(problem).cost(), label);
  }
}

// |Q| = 1 with k = 1: the single assignment fills the provider and
// reaches gamma, so the whole solve is the prefix.
TEST(SspaPrefixTest, SingleUnitProviderSolvesInsidePrefix) {
  Problem problem;
  problem.providers = {Provider{{50, 50}, 1}};
  problem.customers = {Point{10, 10}, Point{52, 49}, Point{90, 20}};
  for (const bool use_grid : {true, false}) {
    const SspaResult result = Solve(problem, use_grid);
    EXPECT_EQ(result.metrics.fast_path_assigns, 1u);
    EXPECT_EQ(result.metrics.dijkstra_runs, 0u);
    ASSERT_EQ(result.matching.pairs.size(), 1u);
    EXPECT_EQ(result.matching.pairs[0].customer, 1);
  }
  ExpectPrefixSolve(problem, Distance(Point{50, 50}, Point{52, 49}), "single");
}

// Ample capacity: no provider ever fills, so the prefix serves every
// customer from its nearest provider and no Dijkstra run is needed; the
// closed-form duals alone must certify the result.
TEST(SspaPrefixTest, AmpleCapacitySolvesInsidePrefix) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 6;
    spec.np = 80;
    spec.k_lo = 100;
    spec.k_hi = 100;
    spec.clustered_p = seed % 2 == 0;
    spec.seed = seed;
    const Problem problem = test::RandomProblem(spec);
    double nearest = 0.0;
    for (const Point& p : problem.customers) {
      double best = 1e100;
      for (const Provider& q : problem.providers) best = std::min(best, Distance(q.pos, p));
      nearest += best;
    }
    const std::string label = "ample seed " + std::to_string(seed);
    for (const bool use_grid : {true, false}) {
      const SspaResult result = Solve(problem, use_grid);
      EXPECT_EQ(result.metrics.fast_path_assigns, problem.customers.size()) << label;
      EXPECT_EQ(result.metrics.dijkstra_runs, 0u) << label;
    }
    ExpectPrefixSolve(problem, nearest, label);
  }
}

// Scarce capacity at a larger shape (most customers stay unserved): the
// duals after the Dijkstra phase still certify, and the cost matches
// Hungarian.
TEST(SspaPrefixTest, ScarceRegimeCertifies) {
  test::InstanceSpec spec;
  spec.nq = 10;
  spec.np = 400;
  spec.k_lo = 2;
  spec.k_hi = 5;
  spec.seed = 23;
  const Problem problem = test::RandomProblem(spec);
  ASSERT_LT(problem.Gamma(), static_cast<std::int64_t>(problem.customers.size()));
  ExpectPrefixSolve(problem, SolveHungarian(problem).matching.cost(), "scarce");
}

// The prefix needs every provider to start with capacity (Theorem 2 holds
// only while no provider is full), unit customers, and no virtual
// provider; anything else keeps it off.
TEST(SspaPrefixTest, OffWhenGated) {
  test::InstanceSpec spec;
  spec.nq = 5;
  spec.np = 40;
  spec.seed = 31;
  Problem zero_cap = test::RandomProblem(spec);
  zero_cap.providers[2].capacity = 0;
  Problem weighted = test::RandomProblem(spec);
  weighted.weights.assign(weighted.customers.size(), 2);
  Problem overflow = test::RandomProblem(spec);
  for (Provider& q : overflow.providers) q.capacity = 1;
  SspaConfig overflow_config;
  overflow_config.allow_overflow = true;
  for (const bool use_grid : {true, false}) {
    for (const auto& [problem, config] :
         {std::pair{zero_cap, SspaConfig{}}, std::pair{weighted, SspaConfig{}},
          std::pair{overflow, overflow_config}}) {
      const SspaResult result = Solve(problem, use_grid, config);
      EXPECT_EQ(result.metrics.fast_path_assigns, 0u);
      EXPECT_EQ(result.metrics.augmentations, result.metrics.dijkstra_runs);
    }
  }
  ExpectPrefixSolve(zero_cap, SolveHungarian(zero_cap).matching.cost(), "zero capacity");
}

// A cold solve's duals and matching, fed back as a warm start on the same
// ample instance, are adopted and re-solve to the identical cost -- the
// engine's path from its first (cold, prefixed) Resolve to its second.
TEST(SspaPrefixTest, ColdDualsWarmStartTheSameInstance) {
  for (const std::int32_t k : {100, 14}) {  // inside the prefix / past it
    test::InstanceSpec spec;
    spec.nq = 6;
    spec.np = 80;
    spec.k_lo = k;
    spec.k_hi = k;
    spec.seed = 5;
    const Problem problem = test::RandomProblem(spec);
    ASSERT_EQ(problem.Gamma(), static_cast<std::int64_t>(problem.customers.size()));
    for (const bool use_grid : {true, false}) {
      const std::string label = "k=" + std::to_string(k) + (use_grid ? " grid" : " reference");
      const SspaResult cold = Solve(problem, use_grid);
      ASSERT_GT(cold.metrics.fast_path_assigns, 0u) << label;
      SspaConfig warm_config;
      warm_config.initial_potentials = &cold.potentials;
      warm_config.initial_matching = &cold.matching;
      const SspaResult warm = Solve(problem, use_grid, warm_config);
      EXPECT_EQ(warm.metrics.fast_path_assigns, 0u) << label;
      EXPECT_GT(warm.metrics.warm_units_adopted, 0u) << label;
      EXPECT_NEAR(warm.matching.cost(), cold.matching.cost(),
                  1e-9 * std::max(1.0, cold.matching.cost()))
          << label;
    }
  }
}

// A deadline that fires right after the prefix (checked before the first
// Dijkstra run) returns the prefix's partial flow: capacity-respecting,
// with an unassigned ledger that is its exact complement.
TEST(SspaPrefixTest, DeadlineAfterPrefixReturnsConsistentPartialFlow) {
  test::InstanceSpec spec;
  spec.nq = 5;
  spec.np = 60;
  spec.k_lo = 3;
  spec.k_hi = 6;
  spec.seed = 17;
  const Problem problem = test::RandomProblem(spec);
  for (const bool use_grid : {true, false}) {
    SspaConfig config;
    config.deadline_ms = 1e-6;  // one nanosecond: elapsed by the first check
    const SspaResult result = Solve(problem, use_grid, config);
    const std::uint64_t prefix = result.metrics.fast_path_assigns;
    ASSERT_GT(prefix, 0u);
    ASSERT_LT(prefix, static_cast<std::uint64_t>(problem.Gamma()));
    EXPECT_TRUE(result.deadline_exceeded);
    EXPECT_EQ(result.metrics.dijkstra_runs, 0u);
    EXPECT_EQ(result.metrics.augmentations, prefix);
    // Partial, so ValidateMatching's maximum-size check does not apply;
    // capacities must still hold.
    const auto loads = result.matching.ProviderLoads(problem.providers.size());
    for (std::size_t q = 0; q < problem.providers.size(); ++q) {
      EXPECT_LE(loads[q], problem.providers[q].capacity) << "q=" << q;
    }
    EXPECT_EQ(result.matching.pairs.size(), prefix);
    std::vector<int> covered(problem.customers.size(), 0);
    for (const MatchPair& pair : result.matching.pairs) {
      covered[static_cast<std::size_t>(pair.customer)] += pair.units;
    }
    for (const UnassignedUnit& u : result.unassigned) {
      EXPECT_EQ(u.units, 1);
      covered[static_cast<std::size_t>(u.customer)] += static_cast<int>(u.units);
    }
    for (const int c : covered) EXPECT_EQ(c, 1);
    EXPECT_EQ(result.unassigned_units,
              static_cast<std::int64_t>(problem.customers.size() - prefix));
  }
}

}  // namespace
}  // namespace cca
