// Unit tests for the shared discovery cursors (geo/grid_cursor.h): coarse
// ring order within and across rings, the certified tail lower bound, and
// the exact incremental-NN refinement (brute-force order, peek, nested
// annular drains, lazy fine-cell opening) on both an unsplit lattice (the
// kGrid stream grid) and a split hierarchy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.h"
#include "geo/grid_cursor.h"
#include "geo/hier_grid.h"
#include "test_util.h"

namespace cca {
namespace {

using test::RandomPoints;
using test::SkewedPoints;
using test::UnsplitGrid;

// Runs `check(pts, grid)` over the two shapes a cursor must serve exactly:
// an unsplit lattice at the default fine resolution over uniform points,
// and a split hierarchy (default options) over skewed points, whose hot
// coarse cells subdivide.
template <typename Check>
void ForBothShapes(std::size_t n, std::uint64_t seed, Check&& check) {
  {
    SCOPED_TRACE("unsplit grid");
    const auto pts = RandomPoints(n, seed);
    const HierarchicalGrid grid = UnsplitGrid(pts, HierarchicalGrid::kDefaultTargetPerCell);
    ASSERT_EQ(grid.splits(), 0u);
    check(pts, grid);
  }
  {
    SCOPED_TRACE("split hierarchy");
    const auto pts = SkewedPoints(n, seed);
    const HierarchicalGrid grid(pts);
    ASSERT_GT(grid.splits(), 0u);
    check(pts, grid);
  }
}

TEST(HierRingCursorTest, RingsNonDecreasingAndCellsSortedWithinRing) {
  ForBothShapes(400, 5, [](const std::vector<Point>&, const HierarchicalGrid& grid) {
    const Point q{321, 654};
    HierRingCursor cursor(grid, q);
    int qx = 0, qy = 0;
    grid.LocateCoarse(q, &qx, &qy);
    const auto cols = static_cast<std::size_t>(grid.coarse_cols());
    int prev_ring = -1;
    double prev_min_dist = -1.0;
    while (const auto cell = cursor.NextCoarse()) {
      EXPECT_GE(cell->ring, prev_ring);
      if (cell->ring > prev_ring) {
        prev_ring = cell->ring;
        prev_min_dist = -1.0;
      }
      EXPECT_GE(cell->min_dist, prev_min_dist);
      prev_min_dist = cell->min_dist;
      const int cx = static_cast<int>(cell->cell % cols);
      const int cy = static_cast<int>(cell->cell / cols);
      EXPECT_EQ(cell->ring, std::max(std::abs(cx - qx), std::abs(cy - qy)));
      EXPECT_DOUBLE_EQ(cell->min_dist, MinDist(q, grid.CoarseRect(cell->cell)));
    }
  });
}

// Point-level certification: before each NextCoarse, TailMinDist() never
// exceeds the true nearest distance among the points not yet returned, for
// queries inside and outside the bounding box.
TEST(HierRingCursorTest, TailMinDistCertifiedAndMonotone) {
  ForBothShapes(500, 7, [](const std::vector<Point>& pts, const HierarchicalGrid& grid) {
    Rng rng(11);
    for (int trial = 0; trial < 10; ++trial) {
      const Point q{rng.Uniform(-100.0, 1100.0), rng.Uniform(-100.0, 1100.0)};
      HierRingCursor cursor(grid, q);
      std::vector<char> returned(pts.size(), 0);
      double prev_bound = 0.0;
      while (true) {
        const double bound = cursor.TailMinDist();
        EXPECT_GE(bound, prev_bound - 1e-12);
        prev_bound = bound;
        double actual_min = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < pts.size(); ++i) {
          if (!returned[i]) actual_min = std::min(actual_min, Distance(q, pts[i]));
        }
        if (actual_min < std::numeric_limits<double>::infinity()) {
          EXPECT_LE(bound, actual_min + 1e-9) << "trial " << trial;
        } else {
          EXPECT_TRUE(cursor.exhausted());
        }
        const auto cell = cursor.NextCoarse();
        if (!cell) break;
        for (std::size_t f = cell->fine_begin; f < cell->fine_end; ++f) {
          const HierarchicalGrid::CellSlice slice = grid.FineCell(f);
          for (std::size_t i = 0; i < slice.count; ++i) {
            returned[static_cast<std::size_t>(slice.ids[i])] = 1;
          }
        }
      }
    }
  });
}

TEST(GridNnCursorTest, MatchesBruteForceOrder) {
  ForBothShapes(300, 13, [](const std::vector<Point>& pts, const HierarchicalGrid& grid) {
    Rng rng(17);
    for (int trial = 0; trial < 8; ++trial) {
      const Point q{rng.Uniform(-50.0, 1050.0), rng.Uniform(-50.0, 1050.0)};
      std::vector<double> expected;
      for (const auto& p : pts) expected.push_back(Distance(q, p));
      std::sort(expected.begin(), expected.end());

      GridNnCursor cursor(grid, q);
      std::set<std::int32_t> seen;
      std::size_t i = 0;
      double prev = 0.0;
      while (const auto hit = cursor.Next()) {
        ASSERT_LT(i, expected.size());
        EXPECT_NEAR(hit->second, expected[i], 1e-9) << "rank " << i;
        EXPECT_GE(hit->second, prev);
        prev = hit->second;
        seen.insert(hit->first);
        ++i;
      }
      EXPECT_EQ(i, pts.size());
      EXPECT_EQ(seen.size(), pts.size());
      // A full drain fetches every occupied coarse cell exactly once.
      EXPECT_EQ(cursor.cells_visited(), grid.nonempty_coarse().size());
    }
  });
}

TEST(GridNnCursorTest, PeekDoesNotConsume) {
  ForBothShapes(50, 19, [](const std::vector<Point>& pts, const HierarchicalGrid& grid) {
    GridNnCursor cursor(grid, Point{500, 500});
    for (std::size_t n = 0; n < pts.size(); ++n) {
      const double peeked = cursor.PeekDistance();
      EXPECT_DOUBLE_EQ(cursor.PeekDistance(), peeked);  // peeking twice is idempotent
      const auto hit = cursor.Next();
      ASSERT_TRUE(hit.has_value());
      EXPECT_DOUBLE_EQ(hit->second, peeked);
    }
    EXPECT_EQ(cursor.PeekDistance(), std::numeric_limits<double>::infinity());
  });
}

// Fine cells open lazily: after serving a point at distance d, the cursor
// has paid distances for exactly the residents of the fine cells it had to
// open -- every fine cell with MinDist < d, and none with MinDist > d
// (cells at exactly d may go either way).
TEST(GridNnCursorTest, OpensOnlyFineCellsWithinTheServedDistance) {
  ForBothShapes(400, 31, [](const std::vector<Point>&, const HierarchicalGrid& grid) {
    Rng rng(37);
    for (int trial = 0; trial < 6; ++trial) {
      const Point q{rng.Uniform(-50.0, 1050.0), rng.Uniform(-50.0, 1050.0)};
      GridNnCursor cursor(grid, q);
      for (int rank = 0; rank < 40; ++rank) {
        const auto hit = cursor.Next();
        ASSERT_TRUE(hit.has_value());
        std::uint64_t below = 0, within = 0;
        for (std::size_t f = 0; f < grid.num_fine(); ++f) {
          const std::size_t count = grid.fine_cell_end(f) - grid.fine_cell_begin(f);
          const double key = MinDist(q, grid.FineRect(f));
          if (key < hit->second) below += count;
          if (key <= hit->second) within += count;
        }
        EXPECT_GE(cursor.points_fetched(), below) << "trial " << trial << " rank " << rank;
        EXPECT_LE(cursor.points_fetched(), within) << "trial " << trial << " rank " << rank;
      }
    }
  });
}

TEST(GridNnCursorTest, EmptyGridExhaustsImmediately) {
  const HierarchicalGrid grid = UnsplitGrid({}, HierarchicalGrid::kDefaultTargetPerCell);
  GridNnCursor cursor(grid, Point{1, 2});
  EXPECT_EQ(cursor.PeekDistance(), std::numeric_limits<double>::infinity());
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_EQ(cursor.cells_visited(), 0u);
}

// RIA's grid backend drains the NN stream batch-by-batch against
// PeekDistance; nested batches must partition the point set exactly like
// independent annulus filters would.
TEST(GridNnCursorTest, NestedBatchDrainsPartitionLikeAnnuli) {
  ForBothShapes(400, 23, [](const std::vector<Point>& pts, const HierarchicalGrid& grid) {
    Rng rng(29);
    for (int trial = 0; trial < 6; ++trial) {
      const Point q{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
      GridNnCursor cursor(grid, q);
      double lo = -1.0;
      std::set<std::int32_t> got;
      for (double hi = 150.0; hi <= 1500.0; lo = hi, hi += 450.0) {
        std::set<std::int32_t> expected;
        for (std::size_t i = 0; i < pts.size(); ++i) {
          const double d = Distance(q, pts[i]);
          if (d <= hi && d > lo) expected.insert(static_cast<std::int32_t>(i));
        }
        std::set<std::int32_t> batch;
        while (cursor.PeekDistance() <= hi) batch.insert(cursor.Next()->first);
        EXPECT_EQ(batch, expected) << "trial " << trial << " lo=" << lo << " hi=" << hi;
        got.insert(batch.begin(), batch.end());
      }
      EXPECT_EQ(got.size(), pts.size()) << "batches must cover the whole set";
    }
  });
}

}  // namespace
}  // namespace cca
