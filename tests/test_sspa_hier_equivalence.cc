// Shape invariances of the hierarchical relax grid (geo/hier_grid.h) seen
// through SSPA's production path: the split policy only redistributes
// points between fine cells, so any split threshold leaves the trajectory
// alone, and a solve borrowing a SharedIndex's grid is bit-identical to
// one building its own. Agreement with the index-free reference scan is
// covered by test_sspa_grid_equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "flow/sspa.h"
#include "runtime/query_runner.h"
#include "test_util.h"

namespace cca {
namespace {

// Uniform providers with capacities in [2, 8] over skewed customers.
Problem SkewedInstance(std::size_t nq, std::size_t np, bool weighted, std::uint64_t seed) {
  Problem problem;
  const auto q_pts = test::RandomPoints(nq, seed * 7 + 1);
  Rng rng(seed * 31 + 3);
  problem.providers.reserve(nq);
  for (const auto& pos : q_pts) {
    problem.providers.push_back(Provider{pos, static_cast<std::int32_t>(rng.UniformInt(2, 8))});
  }
  problem.customers = test::SkewedPoints(np, seed * 13 + 2);
  if (weighted) {
    problem.weights.resize(np);
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 4));
  }
  return problem;
}

TEST(SspaHierEquivalence, SplitThresholdVariantsAgree) {
  // The split policy only redistributes points between fine cells; any
  // threshold (including "never split") must leave the trajectory alone:
  // cost within float tolerance, augmentations equal, and pops equal up
  // to boundary ties (at most a handful per Dijkstra run, one run per
  // augmentation; see test_sspa_grid_equivalence).
  const Problem problem = SkewedInstance(8, 400, /*weighted=*/true, 5);
  const SspaResult reference = SolveSspa(problem, SspaConfig{});
  for (const std::size_t threshold : {1u, 64u, 100000u}) {
    SspaConfig config;
    config.hier_split_threshold = threshold;
    const SspaResult got = SolveSspa(problem, config);
    EXPECT_NEAR(got.matching.cost(), reference.matching.cost(),
                1e-6 * std::max(1.0, reference.matching.cost()))
        << "threshold " << threshold;
    const auto pop_gap = got.metrics.dijkstra_pops > reference.metrics.dijkstra_pops
                             ? got.metrics.dijkstra_pops - reference.metrics.dijkstra_pops
                             : reference.metrics.dijkstra_pops - got.metrics.dijkstra_pops;
    EXPECT_LE(pop_gap, reference.metrics.augmentations) << "threshold " << threshold;
    EXPECT_EQ(got.metrics.augmentations, reference.metrics.augmentations)
        << "threshold " << threshold;
  }
}

TEST(SspaHierEquivalence, SharedIndexInjectionMatchesPrivateBuild) {
  // A solve borrowing the SharedIndex's hierarchical grid must be
  // bit-identical to one building its own (same counters included — the
  // borrowed structure is the same structure). The second spec asks for a
  // different split threshold, so it must keep its private build: a gate
  // that lent it the default-threshold grid would change hier_splits.
  const Problem problem = SkewedInstance(8, 300, /*weighted=*/false, 9);
  SharedIndex::Options options;
  options.build_customer_db = false;
  const SharedIndex index(problem.customers, options);
  QueryRunner runner(&index, 1);
  QuerySpec spec;
  spec.solver = QuerySolver::kSspa;
  spec.problem = problem;
  QuerySpec split_spec = spec;
  split_spec.sspa.hier_split_threshold = 1;
  const std::vector<QuerySpec> batch{spec, split_spec};
  const std::vector<QueryOutcome> outcomes = runner.Run(batch);
  ASSERT_EQ(outcomes.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QueryOutcome& outcome = outcomes[i];
    const SspaResult direct = SolveSspa(problem, batch[i].sspa);
    EXPECT_NEAR(outcome.matching.cost(), direct.matching.cost(),
                1e-9 * std::max(1.0, direct.matching.cost()))
        << "spec " << i;
    EXPECT_EQ(outcome.metrics.dijkstra_pops, direct.metrics.dijkstra_pops) << "spec " << i;
    EXPECT_EQ(outcome.metrics.dijkstra_relaxes, direct.metrics.dijkstra_relaxes) << "spec " << i;
    EXPECT_EQ(outcome.metrics.coarse_tails_pruned, direct.metrics.coarse_tails_pruned)
        << "spec " << i;
    EXPECT_EQ(outcome.metrics.coarse_cells_descended, direct.metrics.coarse_cells_descended)
        << "spec " << i;
    EXPECT_EQ(outcome.metrics.hier_splits, direct.metrics.hier_splits) << "spec " << i;
  }
}

}  // namespace
}  // namespace cca
