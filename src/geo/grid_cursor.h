// Stateful candidate-discovery cursors over the hierarchical grid.
//
// This is the shared primitive behind every grid-backed discovery path:
// the SSPA ring scan (HierRingCursor, src/flow/sspa.cc), the grid NN
// source that drives NIA/IDA's edge frontier (src/core/nn_source.cc), and
// RIA's grid-backed annular range search. The contract (see
// src/core/README.md):
//
//   * `HierRingCursor` enumerates the occupied coarse cells around one
//     query point in expanding Chebyshev rings, cells within a ring served
//     in ascending MinDist(query, cell) order. `TailMinDist()` is a
//     certified lower bound on dist(query, p) for every point in a coarse
//     cell that has not been returned yet, and is non-decreasing across
//     NextCoarse() calls.
//   * `GridNnCursor` refines that coarse-cell stream into an exact
//     incremental nearest-neighbour stream (non-decreasing point
//     distances) by holding fetched fine cells and opened points in one
//     candidate heap and serving the top point as soon as its distance is
//     within `TailMinDist()`.
// (RIA's nested annular batches need no separate range primitive: the
// grid backend drains a persistent NN stream per provider up to each new
// T, so inner cells are never re-fetched across batches — see
// src/core/ria.cc.)
//
// GridNnCursor reports the number of coarse cells fetched so backends can
// be compared apples-to-apples against R-tree node accesses
// (Metrics::grid_cursor_cells / Metrics::index_node_accesses).
#ifndef CCA_GEO_GRID_CURSOR_H_
#define CCA_GEO_GRID_CURSOR_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "geo/hier_grid.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace cca {

// Candidate-heap entry for GridNnCursor's exact-NN refinement over fetched
// cells, and its ordering: nearest first, equal distances by ascending id.
// GridNnCursor also queues unopened fine cells as entries keyed by their
// MinDist, with oid = -1 - fine id (so a cell sorts before points at the
// same distance).
struct NnCandidate {
  double dist;
  std::int32_t oid;
};
struct NnCandidateFarther {
  bool operator()(const NnCandidate& a, const NnCandidate& b) const {
    return a.dist != b.dist ? a.dist > b.dist : a.oid > b.oid;
  }
};

// Coarse-level ring cursor over a HierarchicalGrid (geo/hier_grid.h),
// enumerating occupied *coarse* cells in expanding coarse rings,
// nearest-first within a ring. A served CoarseView carries the O(1)
// aggregates (resident count, fine-child id range); the consumer decides
// per coarse cell whether to reject its whole tail on the aggregated bound
// or descend into FineCell() slices — that split is what makes the SSPA
// coarse-tail exit O(1) per rejected region (see src/geo/README.md).
class HierRingCursor {
 public:
  struct CoarseView {
    int ring = 0;
    std::size_t cell = 0;   // HierarchicalGrid::CoarseIndex of the cell
    double min_dist = 0.0;  // MinDist(query, coarse rect)
    std::size_t count = 0;  // residents of the whole coarse cell
    std::size_t fine_begin = 0;  // global fine-cell id range [begin, end)
    std::size_t fine_end = 0;
  };

  HierRingCursor(const HierarchicalGrid& grid, const Point& query);

  // Rewinds onto a new query, reusing the ring buffer's capacity (one
  // cursor per SSPA solve, reset per provider pop).
  void Reset(const Point& query);

  // Lower bound on dist(query, p) over every point in a not-yet-returned
  // coarse cell; +infinity once exhausted. Non-decreasing.
  double TailMinDist() const {
    if (exhausted_) return std::numeric_limits<double>::infinity();
    return pos_ < buffer_.size() ? std::min(buffer_[pos_].min_dist, next_ring_bound_)
                                 : next_ring_bound_;
  }

  bool exhausted() const { return exhausted_; }

  // Next occupied coarse cell, or nullopt when all have been served.
  std::optional<CoarseView> NextCoarse();

  // Points held by coarse cells not yet returned (for prune accounting).
  std::size_t points_remaining() const { return points_remaining_; }

  // Coarse cells served so far (coarse-level traversal work; fine-cell
  // fetches are charged by the consumer, which decides what to open).
  std::uint64_t coarse_visited() const { return coarse_visited_; }

 private:
  void FillRing();

  const HierarchicalGrid* grid_;
  Point query_;
  int ring_ = 0;
  int max_ring_ = 0;
  bool exhausted_ = false;
  double next_ring_bound_ = 0.0;  // grid_->RingTailMinDist(query, ring_ + 1)
  std::size_t pos_ = 0;
  std::size_t points_remaining_ = 0;
  std::uint64_t coarse_visited_ = 0;
  std::vector<CoarseView> buffer_;
};

// Exact incremental NN stream over a hierarchical grid: Next() yields
// (point id, distance) pairs in non-decreasing distance order until the
// grid is exhausted. Each coarse cell the ring cursor serves queues its
// occupied fine children in the candidate heap, keyed by MinDist; a fine
// cell's points pay their distances only when the cell reaches the top,
// so the stream is exact on split and unsplit grids alike and fetched
// cells beyond the last served point are never opened. Equal-distance
// candidates already fetched are served in ascending id order (the stream
// is deterministic; ties spanning a not-yet-fetched coarse cell are served
// in fetch order).
class GridNnCursor {
 public:
  GridNnCursor(const HierarchicalGrid& grid, const Point& query);

  std::optional<std::pair<std::int32_t, double>> Next();

  // Distance the next Next() would return (+infinity when exhausted); may
  // fetch cells to find out, like NnIterator::PeekDistance.
  double PeekDistance();

  // Coarse cells fetched so far.
  std::uint64_t cells_visited() const { return cells_.coarse_visited(); }

  // Points whose distance was computed so far (residents of opened fine
  // cells).
  std::uint64_t points_fetched() const { return points_fetched_; }

 private:
  // Fetches coarse cells and opens fine cells until the heap top is a
  // point certified by TailMinDist, or the grid drains.
  void Refine();

  const HierarchicalGrid* grid_;
  HierRingCursor cells_;
  Point query_;
  std::priority_queue<NnCandidate, std::vector<NnCandidate>, NnCandidateFarther> heap_;
  std::uint64_t points_fetched_ = 0;
};

}  // namespace cca

#endif  // CCA_GEO_GRID_CURSOR_H_
