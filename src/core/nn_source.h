// Incremental NN streams for the edge-discovery side of NIA/IDA.
//
// `NnSource` hands out, per service provider, the next nearest customer on
// demand. The interface is backend-neutral — a `Hit` is just (customer id,
// distance), with no R-tree types leaking through — and three backends
// implement it, one per DiscoveryBackend (see src/core/README.md for the
// layer contract):
//
//   * PlainNnSource    independent best-first R-tree iterators, one per
//                      provider;
//   * GroupedNnSource  the shared Hilbert-grouped ANN traversal of paper
//                      Section 3.4.2;
//   * GridNnSource     grid NN cursors over an unsplit hierarchical grid of
//                      the memory-resident customer array
//                      (src/geo/grid_cursor.h) — no R-tree nodes are
//                      touched and no page I/O is charged.
//
// The concrete classes live in nn_source.cc; callers go through the
// factory, which dispatches on ExactConfig::discovery_backend.
#ifndef CCA_CORE_NN_SOURCE_H_
#define CCA_CORE_NN_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "common/metrics.h"
#include "core/exact.h"
#include "core/problem.h"
#include "geo/hier_grid.h"

namespace cca {

class CustomerDb;

class NnSource {
 public:
  // Backend-neutral discovery hit: the customer's object id (== index into
  // Problem::customers) and its distance to the querying provider.
  struct Hit {
    std::int32_t oid = -1;
    double dist = 0.0;
  };

  virtual ~NnSource() = default;
  // Next nearest customer of provider `q` (non-decreasing distance per
  // provider), or nullopt when exhausted.
  virtual std::optional<Hit> NextNN(int q) = 0;
  // Distance the next NextNN(q) would return (+infinity when exhausted)
  // without consuming it; may read index structures to find out. RIA's
  // grid path drains a source batch-by-batch against this bound.
  virtual double PeekDistance(int q) = 0;
};

// Streaming-grid resolution of the kGrid backend, in average customers per
// cell. Unlike the SSPA relax (which wants fine cells for pruning
// granularity), an NN cursor keeps every fetched point in its candidate
// heap, so fat cells simply amortise the per-fetch cost — one fetch is one
// contiguous SoA scan, the grid analogue of reading an R-tree leaf page.
inline constexpr double kNnStreamTargetPerCell = 256.0;

// Options of the kGrid backend's streaming grid: one lattice at
// kNnStreamTargetPerCell with splitting switched off, so every coarse cell
// is its own single fine cell (a flat grid). The one definition both a
// per-solve build (MakeNnSource) and SharedIndex use, the way
// RelaxGridOptions (flow/sspa.h) serves the relax grid.
inline HierarchicalGrid::Options NnStreamGridOptions() {
  HierarchicalGrid::Options opts;
  opts.coarse_target_per_cell = kNnStreamTargetPerCell;
  opts.split_threshold = std::numeric_limits<std::size_t>::max();
  return opts;
}

// Factory honouring ExactConfig::discovery_backend. The grid backend reads
// `db->points()` and reports its cursor cells into `metrics`
// (grid_cursor_cells / index_node_accesses); the R-tree backends report
// through the tree's own counters (harvested by IoScope).
std::unique_ptr<NnSource> MakeNnSource(CustomerDb* db, const Problem& problem,
                                       const ExactConfig& config, Metrics* metrics);

}  // namespace cca

#endif  // CCA_CORE_NN_SOURCE_H_
