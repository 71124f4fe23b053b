// Uniform grid over a static point set, with expanding-ring enumeration.
//
// The grid partitions the bounding box of the indexed points into square
// cells of roughly `target_per_cell` points each and stores, per cell, the
// point ids *and* a cell-clustered copy of the coordinates (SoA), so a
// caller can run the blocked distance kernel straight over a cell's slice
// without gathering.
//
// Ring enumeration serves the exact solvers' grid NN stream (GridNnCursor,
// src/geo/grid_cursor.h): ring r around a query point q is the set of cells
// at Chebyshev distance exactly r from q's (clamped) cell.
// `RingTailMinDist(q, r)` lower-bounds the Euclidean distance from q to
// every point stored in ring r *or any later ring*, and is non-decreasing
// in r, which is what lets a cursor certify a candidate before exhausting
// the grid. The SSPA relax grid (geo/hier_grid.h) reuses the slice type.
#ifndef CCA_GEO_GRID_H_
#define CCA_GEO_GRID_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "geo/point.h"
#include "geo/rect.h"

namespace cca {

class UniformGrid {
 public:
  // A cell's contents: point ids plus the matching cell-clustered
  // coordinate slices (xs[i]/ys[i] are the coordinates of ids[i]).
  // `first_slot` is the slice's offset into the grid's clustered arrays, so
  // side tables laid out in slot order (HierTauTable values) can be sliced
  // in lockstep with the coordinates.
  struct CellSlice {
    const std::int32_t* ids = nullptr;
    const double* xs = nullptr;
    const double* ys = nullptr;
    std::size_t count = 0;
    std::size_t first_slot = 0;
  };

  // Default resolution: average points per cell the builder aims for.
  static constexpr double kDefaultTargetPerCell = 4.0;

  // Builds the grid over `points`. `target_per_cell` tunes the resolution;
  // degenerate inputs (empty set, collinear points, all-equal points) fall
  // back to a single row/column/cell. A `target_per_cell` below 1
  // (including a non-positive one) falls to ResolutionFor's clamp at 1:
  // about one point per cell.
  explicit UniformGrid(const std::vector<Point>& points,
                       double target_per_cell = kDefaultTargetPerCell);

  std::size_t size() const { return static_cast<std::size_t>(items_.size()); }
  int cols() const { return cols_; }
  int rows() const { return rows_; }
  double cell_size() const { return cell_; }
  const Rect& bounds() const { return bounds_; }

  // Cell coordinates of `q`, clamped into the grid.
  void Locate(const Point& q, int* cx, int* cy) const;

  // Largest ring index that still intersects the grid when centred on the
  // (clamped) cell of `q`; rings beyond this are empty.
  int MaxRing(const Point& q) const;

  // Lower bound on dist(q, p) for every point p stored in ring `ring` or
  // any ring after it (non-decreasing in `ring`; 0 when no useful bound
  // exists, e.g. q outside the grid).
  double RingTailMinDist(const Point& q, int ring) const;

  // Geometric extent of cell (cx, cy); MinDist(q, CellRect(...)) gives the
  // per-cell lower bound used to skip individual cells inside a ring.
  Rect CellRect(int cx, int cy) const;

  CellSlice Cell(int cx, int cy) const;

  // Row-major index of cell (cx, cy) in [0, cols*rows), the CSR key.
  std::size_t CellIndex(int cx, int cy) const {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(cx);
  }

  // Calls fn(cx, cy, slice) for every non-empty cell of ring `ring` around
  // the (clamped) cell of `q`.
  template <typename Fn>
  void VisitRing(const Point& q, int ring, Fn&& fn) const {
    int cx = 0, cy = 0;
    Locate(q, &cx, &cy);
    if (ring == 0) {
      VisitCell(cx, cy, fn);
      return;
    }
    const int x_lo = cx - ring, x_hi = cx + ring;
    const int y_lo = cy - ring, y_hi = cy + ring;
    // Top and bottom rows of the ring square.
    for (int y : {y_lo, y_hi}) {
      if (y < 0 || y >= rows_) continue;
      const int from = x_lo < 0 ? 0 : x_lo;
      const int to = x_hi >= cols_ ? cols_ - 1 : x_hi;
      for (int x = from; x <= to; ++x) VisitCell(x, y, fn);
    }
    // Left and right columns, excluding the corners already visited.
    for (int x : {x_lo, x_hi}) {
      if (x < 0 || x >= cols_) continue;
      const int from = y_lo + 1 < 0 ? 0 : y_lo + 1;
      const int to = y_hi - 1 >= rows_ ? rows_ - 1 : y_hi - 1;
      for (int y = from; y <= to; ++y) VisitCell(x, y, fn);
    }
  }

 private:
  // Cell side and lattice shape for `n` points at `target_per_cell` (a
  // pure function of bounds_; targets below 1 clamp to 1).
  void ResolutionFor(std::size_t n, double target_per_cell, double* cell, int* cols,
                     int* rows) const;

  template <typename Fn>
  void VisitCell(int cx, int cy, Fn& fn) const {
    const CellSlice slice = Cell(cx, cy);
    if (slice.count > 0) fn(cx, cy, slice);
  }

  Rect bounds_;
  double cell_ = 1.0;
  int cols_ = 1;
  int rows_ = 1;
  std::vector<std::int32_t> start_;  // CSR: cell -> first slot, size cols*rows+1
  std::vector<std::int32_t> items_;  // point ids, clustered by cell
  std::vector<double> xs_;           // coordinates aligned with items_
  std::vector<double> ys_;
};

}  // namespace cca

#endif  // CCA_GEO_GRID_H_
