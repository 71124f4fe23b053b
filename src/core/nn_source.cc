#include "core/nn_source.h"

#include <vector>

#include "core/customer_db.h"
#include "geo/grid_cursor.h"
#include "rtree/ann_iterator.h"
#include "rtree/nn_iterator.h"
#include "rtree/rtree.h"

namespace cca {
namespace {

std::optional<NnSource::Hit> FromRTreeHit(const std::optional<RTree::Hit>& hit) {
  if (!hit) return std::nullopt;
  return NnSource::Hit{static_cast<std::int32_t>(hit->oid), hit->dist};
}

// One independent best-first NN iterator per provider.
class PlainNnSource : public NnSource {
 public:
  PlainNnSource(RTree* tree, const std::vector<Provider>& providers) {
    iterators_.reserve(providers.size());
    for (const auto& q : providers) iterators_.emplace_back(tree, q.pos);
  }

  std::optional<Hit> NextNN(int q) override {
    return FromRTreeHit(iterators_[static_cast<std::size_t>(q)].Next());
  }

  double PeekDistance(int q) override {
    return iterators_[static_cast<std::size_t>(q)].PeekDistance();
  }

 private:
  std::vector<NnIterator> iterators_;
};

// Hilbert-grouped shared traversal (paper Algorithm 6).
class GroupedNnSource : public NnSource {
 public:
  GroupedNnSource(RTree* tree, const std::vector<Provider>& providers,
                  std::size_t max_group_size, const Rect& world) {
    std::vector<Point> positions;
    positions.reserve(providers.size());
    for (const auto& q : providers) positions.push_back(q.pos);
    const auto groups = FormHilbertGroups(positions, max_group_size, world);
    searcher_ = std::make_unique<GroupAnnSearcher>(tree, positions, groups);
  }

  std::optional<Hit> NextNN(int q) override { return FromRTreeHit(searcher_->NextNN(q)); }

  double PeekDistance(int q) override { return searcher_->PeekDistance(q); }

 private:
  std::unique_ptr<GroupAnnSearcher> searcher_;
};

// Grid ring cursors over the memory-resident customer array. The grid is
// either borrowed (a caller-owned shared immutable grid, so concurrent
// queries skip the per-solve build) or built and owned here.
class GridNnSource : public NnSource {
 public:
  GridNnSource(const std::vector<Point>& customers, const std::vector<Provider>& providers,
               const HierarchicalGrid* shared_grid, Metrics* metrics)
      : owned_grid_(shared_grid != nullptr
                        ? nullptr
                        : std::make_unique<HierarchicalGrid>(customers, NnStreamGridOptions())),
        grid_(shared_grid != nullptr ? shared_grid : owned_grid_.get()),
        metrics_(metrics) {
    cursors_.reserve(providers.size());
    for (const auto& q : providers) cursors_.emplace_back(*grid_, q.pos);
  }

  // Runs `op` and charges any cells it fetched to the metrics bundle —
  // the single place grid cursor work is accounted. (Defined before its
  // uses: in-class `auto` return deduction needs the body first.)
  template <typename Op>
  auto Charged(GridNnCursor* cursor, Op&& op) {
    const std::uint64_t before = cursor->cells_visited();
    auto result = op();
    if (metrics_ != nullptr) {
      const std::uint64_t cells = cursor->cells_visited() - before;
      metrics_->grid_cursor_cells += cells;
      metrics_->index_node_accesses += cells;
    }
    return result;
  }

  std::optional<Hit> NextNN(int q) override {
    GridNnCursor& cursor = cursors_[static_cast<std::size_t>(q)];
    const auto next = Charged(&cursor, [&] { return cursor.Next(); });
    if (!next) return std::nullopt;
    return Hit{next->first, next->second};
  }

  double PeekDistance(int q) override {
    GridNnCursor& cursor = cursors_[static_cast<std::size_t>(q)];
    return Charged(&cursor, [&] { return cursor.PeekDistance(); });
  }

 private:
  std::unique_ptr<HierarchicalGrid> owned_grid_;  // null when borrowing
  const HierarchicalGrid* grid_;
  Metrics* metrics_;
  std::vector<GridNnCursor> cursors_;
};

}  // namespace

std::unique_ptr<NnSource> MakeNnSource(CustomerDb* db, const Problem& problem,
                                       const ExactConfig& config, Metrics* metrics) {
  switch (config.discovery_backend) {
    case DiscoveryBackend::kGrid:
      return std::make_unique<GridNnSource>(db->points(), problem.providers,
                                            config.shared_stream_grid, metrics);
    case DiscoveryBackend::kRTreeGrouped:
      return std::make_unique<GroupedNnSource>(db->tree(), problem.providers,
                                               config.ann_group_size, problem.World());
    case DiscoveryBackend::kRTreePlain:
      break;
  }
  return std::make_unique<PlainNnSource>(db->tree(), problem.providers);
}

}  // namespace cca
