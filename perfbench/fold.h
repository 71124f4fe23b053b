// Folds trace spans into per-layer self times.
//
// Two kinds of span reach the fold, both recorded by the library's tracer
// (src/common/trace.h) so they share one clock, one epoch and one nesting
// depth counter per thread:
//   * the benchmark's own spans around each public call ("op" per
//     operation, "runtime.edit", "runtime.resolve", "flow.solve",
//     "geo.build", "core.solve", "storage.cool_down", "runtime.run");
//   * the spans compiled into the library ("engine.resolve",
//     "sspa.solve", "sspa.repair_duals", "sspa.adopt_flow",
//     "sspa.dijkstra", "runner.query", "storage.page_fault", ...).
// A span's self time is its duration minus what its children cover; a
// layer's self time is the sum over its spans. Within one thread the self
// times of a root span's tree partition the root's duration exactly, so the
// coverage check (named layers against operation wall time) measures how
// much of an operation the spans leave to the benchmark's own glue.
#ifndef PERFBENCH_FOLD_H_
#define PERFBENCH_FOLD_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

enum Layer { kBench = 0, kRuntime, kFlow, kGeo, kCore, kRtree, kStorage, kNumLayers };

inline constexpr const char* kLayerNames[kNumLayers] = {"bench", "runtime", "flow", "geo",
                                                        "core",  "rtree",   "storage"};

// Layer of a span, by the prefix before its first '.'. The benchmark names
// its spans after the layer it calls into; the library's own span prefixes
// map onto the module that emits them.
inline Layer LayerOf(const char* name) {
  static const std::pair<const char*, Layer> kPrefixes[] = {
      {"runtime.", kRuntime}, {"engine.", kRuntime},   {"runner.", kRuntime},
      {"flow.", kFlow},       {"sspa.", kFlow},        {"geo.", kGeo},
      {"hier.", kGeo},        {"frontier.", kGeo},     {"core.", kCore},
      {"rtree.", kRtree},     {"storage.", kStorage},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (std::strncmp(name, prefix, std::strlen(prefix)) == 0) return layer;
  }
  return kBench;
}

struct SpanTotals {
  Layer layer = kBench;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Fold {
 public:
  // Folds the events drained after one operation. The operation's "op"
  // span sits at the root of its thread; spans of other threads (pool
  // workers) are rooted at their own top-level span. Top-level spans on
  // the op's thread other than "op" (out-of-loop checks) are ignored.
  void AddOp(std::vector<cca::trace::Event> events) {
    std::uint32_t main_tid = 0;
    bool have_op = false;
    for (const auto& e : events) {
      if (std::strcmp(e.name, "op") == 0) {
        main_tid = e.tid;
        have_op = true;
      }
    }
    if (!have_op) return;
    ++ops_;
    std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
      if (a.tid != b.tid) return a.tid < b.tid;
      if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
      return a.depth < b.depth;
    });
    // Per thread: a depth-ordered stack recovers each span's parent.
    struct Open {
      const cca::trace::Event* e;
      std::uint64_t covered;
      bool counted;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      if (!o.counted) return;
      const std::uint64_t self = o.e->dur_ns > o.covered ? o.e->dur_ns - o.covered : 0;
      SpanTotals& t = by_name_[o.e->name];
      t.self_ns += self;
      layer_self_ns_[t.layer] += self;
    };
    std::uint32_t tid = ~0u;
    for (const auto& e : events) {
      if (e.tid != tid) {
        while (!stack.empty()) {
          close(stack.back());
          stack.pop_back();
        }
        tid = e.tid;
      }
      while (!stack.empty() && stack.back().e->depth >= e.depth) {
        close(stack.back());
        stack.pop_back();
      }
      bool counted = true;
      if (stack.empty()) {
        if (e.tid == main_tid) {
          counted = std::strcmp(e.name, "op") == 0;
          if (counted) op_wall_ns_ += e.dur_ns;
        } else {
          worker_wall_ns_ += e.dur_ns;
        }
      } else {
        counted = stack.back().counted;
        stack.back().covered += e.dur_ns;
      }
      if (counted) {
        const Layer layer = LayerOf(e.name);
        SpanTotals& t = by_name_[e.name];
        t.layer = layer;
        ++t.count;
        t.total_ns += e.dur_ns;
        // Outermost span of its layer: the time spent inside the layer,
        // children of other layers included.
        if (stack.empty() || LayerOf(stack.back().e->name) != layer) {
          layer_outer_ns_[layer] += e.dur_ns;
        }
      }
      stack.push_back(Open{&e, 0, counted});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }

  std::uint64_t ops() const { return ops_; }
  // Summed durations of the "op" spans.
  std::uint64_t op_wall_ns() const { return op_wall_ns_; }
  // Summed durations of root spans on threads other than the op's.
  std::uint64_t worker_wall_ns() const { return worker_wall_ns_; }
  std::uint64_t layer_self_ns(Layer l) const { return layer_self_ns_[l]; }
  std::uint64_t layer_outer_ns(Layer l) const { return layer_outer_ns_[l]; }
  const std::map<std::string, SpanTotals>& by_name() const { return by_name_; }
  SpanTotals span(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? SpanTotals{} : it->second;
  }

 private:
  std::uint64_t ops_ = 0;
  std::uint64_t op_wall_ns_ = 0;
  std::uint64_t worker_wall_ns_ = 0;
  std::uint64_t layer_self_ns_[kNumLayers] = {};
  std::uint64_t layer_outer_ns_[kNumLayers] = {};
  std::map<std::string, SpanTotals> by_name_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FOLD_H_
