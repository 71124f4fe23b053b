// ANN group-size sensitivity: correctness must be invariant in the group
// size; shared traversals must save node accesses as groups grow (up to
// the candidate-duplication trade-off the paper describes).
#include <gtest/gtest.h>

#include "core/exact.h"
#include "flow/sspa.h"
#include "test_util.h"

namespace cca {
namespace {

class AnnGroupSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AnnGroupSizeTest, CostInvariantInGroupSize) {
  test::InstanceSpec spec;
  spec.nq = 12;
  spec.np = 300;
  spec.k_lo = 5;
  spec.k_hi = 10;
  spec.clustered_q = true;
  spec.clustered_p = true;
  spec.seed = 99;
  const Problem problem = test::RandomProblem(spec);
  auto db = test::MakeDb(problem);
  ExactConfig config;
  config.ann_group_size = GetParam();
  const ExactResult ida = SolveIda(problem, db.get(), config);
  EXPECT_NEAR(ida.matching.cost(), SolveSspa(problem).matching.cost(),
              1e-6 * (1 + ida.matching.cost()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AnnGroupSizeTest, ::testing::Values<std::size_t>(0, 1, 2, 4, 8, 32),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "g" + std::to_string(info.param);
                         });

TEST(AnnGroupSizeTest, GroupingSavesNodeAccessesOnClusteredProviders) {
  test::InstanceSpec spec;
  spec.nq = 16;
  spec.np = 2000;
  spec.k_lo = 20;
  spec.k_hi = 20;
  spec.clustered_q = true;
  spec.clustered_p = true;
  spec.seed = 100;
  const Problem problem = test::RandomProblem(spec);
  auto db = test::MakeDb(problem, /*buffer_fraction=*/0.05, /*page_size=*/256);

  ExactConfig singleton;
  singleton.ann_group_size = 1;  // degenerates to independent iterators
  db->CoolDown();
  const ExactResult alone = SolveIda(problem, db.get(), singleton);

  ExactConfig grouped;
  grouped.ann_group_size = 8;
  db->CoolDown();
  const ExactResult together = SolveIda(problem, db.get(), grouped);

  EXPECT_NEAR(alone.matching.cost(), together.matching.cost(), 1e-6);
  EXPECT_LT(together.metrics.node_accesses, alone.metrics.node_accesses);
}

}  // namespace
}  // namespace cca
