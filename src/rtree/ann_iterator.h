// Grouped incremental all-nearest-neighbour (ANN) search, paper Section
// 3.4.2.
//
// NIA/IDA issue many interleaved incremental NN streams, one per service
// provider. Running an independent best-first search per provider re-reads
// the same R-tree pages over and over. The paper's optimisation groups
// nearby providers (by Hilbert order), maintains a *single* best-first
// traversal per group ordered by mindist(MBR(group), entry), and feeds every
// de-heaped point into per-provider candidate heaps. A provider's next NN is
// served from its candidate heap as soon as the candidate's distance is no
// larger than the group frontier key (Algorithm 6). Like NnIterator, this is
// consumed through the backend-neutral NnSource interface (core/nn_source.h)
// and must honour its per-provider non-decreasing-distance contract; the
// frontier key plays the same certifying role as HierRingCursor's
// TailMinDist (src/core/README.md).
#ifndef CCA_RTREE_ANN_ITERATOR_H_
#define CCA_RTREE_ANN_ITERATOR_H_

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "geo/point.h"
#include "geo/rect.h"
#include "rtree/rtree.h"

namespace cca {

// Partitions `points` (service providers) into groups of at most
// `max_group_size` consecutive points in Hilbert order over `world`; a
// `max_group_size` of 0 is treated as 1 (singleton groups). Returns group
// membership: result[g] lists provider indices of group g.
std::vector<std::vector<int>> FormHilbertGroups(const std::vector<Point>& points,
                                                std::size_t max_group_size, const Rect& world);

class GroupAnnSearcher {
 public:
  // `groups[g]` lists indices into `providers` belonging to group g.
  GroupAnnSearcher(RTree* tree, const std::vector<Point>& providers,
                   const std::vector<std::vector<int>>& groups);

  // Next nearest customer of provider `idx` (ascending distance), or
  // nullopt when the dataset is exhausted for that provider.
  std::optional<RTree::Hit> NextNN(int idx);

  // Distance the next NextNN(idx) would return (infinity if exhausted).
  // Advances the shared group traversal as needed but never consumes
  // candidates.
  double PeekDistance(int idx);

 private:
  struct FrontierItem {
    double key;  // mindist(group MBR, entry MBR)
    PageId page;
  };
  struct FrontierCmp {
    bool operator()(const FrontierItem& a, const FrontierItem& b) const { return a.key > b.key; }
  };
  struct Candidate {
    double dist;
    std::uint32_t oid;
    Point pos;
  };
  struct CandidateCmp {
    bool operator()(const Candidate& a, const Candidate& b) const { return a.dist > b.dist; }
  };
  struct Group {
    Rect mbr;
    std::vector<int> members;
    std::priority_queue<FrontierItem, std::vector<FrontierItem>, FrontierCmp> frontier;
  };

  // Pops frontier entries of `g` until member `idx`'s candidate top is
  // final (<= frontier key) or the frontier drains.
  void AdvanceUntilServable(int g, int idx);

  RTree* tree_;
  std::vector<Point> providers_;
  std::vector<Group> groups_;
  std::vector<int> group_of_;  // provider index -> group id
  std::vector<std::priority_queue<Candidate, std::vector<Candidate>, CandidateCmp>> candidates_;
};

}  // namespace cca

#endif  // CCA_RTREE_ANN_ITERATOR_H_
