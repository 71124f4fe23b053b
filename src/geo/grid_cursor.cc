#include "geo/grid_cursor.h"

#include <algorithm>

namespace cca {

HierRingCursor::HierRingCursor(const HierarchicalGrid& grid, const Point& query)
    : grid_(&grid) {
  Reset(query);
}

void HierRingCursor::Reset(const Point& query) {
  query_ = query;
  ring_ = 0;
  max_ring_ = grid_->MaxRing(query);
  exhausted_ = false;
  points_remaining_ = grid_->size();
  coarse_visited_ = 0;
  FillRing();
}

void HierRingCursor::FillRing() {
  buffer_.clear();
  pos_ = 0;
  while (ring_ <= max_ring_) {
    grid_->VisitCoarseRing(query_, ring_, [&](int cx, int cy) {
      const std::size_t c = grid_->CoarseIndex(cx, cy);
      const std::size_t count = grid_->coarse_count(c);
      if (count == 0) return;
      buffer_.push_back(CoarseView{ring_, c, MinDist(query_, grid_->CoarseRect(c)), count,
                                   grid_->fine_begin(c), grid_->fine_end(c)});
    });
    if (!buffer_.empty()) {
      // Serving a ring's cells nearest-first lets TailMinDist() tighten
      // past the ring bound as soon as the close coarse cells drain.
      // (Single-cell rings — ring 0, and clipped boundary rings — are the
      // common case on the SSPA hot path; skip the sort call for them.)
      if (buffer_.size() > 1) {
        std::sort(buffer_.begin(), buffer_.end(), [](const CoarseView& a, const CoarseView& b) {
          return a.min_dist < b.min_dist;
        });
      }
      next_ring_bound_ = grid_->RingTailMinDist(query_, ring_ + 1);
      return;
    }
    ++ring_;  // empty ring: skip it (no points to bound)
  }
  exhausted_ = true;
}

std::optional<HierRingCursor::CoarseView> HierRingCursor::NextCoarse() {
  if (exhausted_) return std::nullopt;
  const CoarseView cell = buffer_[pos_++];
  ++coarse_visited_;
  points_remaining_ -= cell.count;
  if (pos_ == buffer_.size()) {
    ++ring_;
    FillRing();
  }
  return cell;
}

GridNnCursor::GridNnCursor(const HierarchicalGrid& grid, const Point& query)
    : grid_(&grid), cells_(grid, query), query_(query) {}

void GridNnCursor::Refine() {
  while (true) {
    if (!cells_.exhausted() && (heap_.empty() || heap_.top().dist > cells_.TailMinDist())) {
      const auto cell = cells_.NextCoarse();
      if (!cell) break;
      for (std::size_t f = cell->fine_begin; f < cell->fine_end; ++f) {
        if (grid_->fine_cell_begin(f) == grid_->fine_cell_end(f)) continue;
        heap_.push(NnCandidate{MinDist(query_, grid_->FineRect(f)),
                               -1 - static_cast<std::int32_t>(f)});
      }
      continue;
    }
    // A fine cell on top may hold the next point: open it. Its key lower-
    // bounds every resident's distance and sorts before equal-distance
    // points, so points are still served in (distance, id) order.
    if (heap_.empty() || heap_.top().oid >= 0) break;
    const auto f = static_cast<std::size_t>(-1 - heap_.top().oid);
    heap_.pop();
    const HierarchicalGrid::CellSlice slice = grid_->FineCell(f);
    for (std::size_t i = 0; i < slice.count; ++i) {
      heap_.push(NnCandidate{Distance(query_, Point{slice.xs[i], slice.ys[i]}), slice.ids[i]});
    }
    points_fetched_ += slice.count;
  }
}

std::optional<std::pair<std::int32_t, double>> GridNnCursor::Next() {
  Refine();
  if (heap_.empty()) return std::nullopt;
  const NnCandidate top = heap_.top();
  heap_.pop();
  return std::make_pair(top.oid, top.dist);
}

double GridNnCursor::PeekDistance() {
  Refine();
  return heap_.empty() ? std::numeric_limits<double>::infinity() : heap_.top().dist;
}

}  // namespace cca
