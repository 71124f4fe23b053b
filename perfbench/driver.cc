// perfbench driver: runs one named workload against the cca library's
// public API for a fixed wall-clock window and prints its metrics.
//
//   perfbench_driver --workload dispatch|batch|paper|serve --seed N
//                    --seconds S --trace 0|1 [--size full|tiny]
//                    [--min-ops N] [--git-sha SHA] [--spans-out FILE]
//
// --trace 0 needs an untraced build and reports the end-to-end metrics;
// --trace 1 needs a -DCCA_ENABLE_TRACING=ON build and reports the per-layer
// metrics folded from spans (fold.h). Both refuse builds without NDEBUG:
// Debug engines re-solve cold inside every Resolve. Inputs come only from
// --seed. Every operation's output is checked; a failed check sets
// "correct": false and the exit code to 1. The last stdout line is one JSON
// object; the lines before it are the human-readable report.
// perfbench/README.md explains the workloads and the metric table.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/customer_db.h"
#include "core/exact.h"
#include "core/matching.h"
#include "core/problem.h"
#include "flow/sspa.h"
#include "fold.h"
#include "gen/generator.h"
#include "geo/hier_grid.h"
#include "runtime/engine.h"
#include "runtime/query_runner.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Opens a span named after the layer a public call enters. Compiles to an
// empty object in untraced builds.
using Span = cca::trace::Span;

// --- inputs ------------------------------------------------------------------

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Every workload lives in one city, as the paper's datasets all live on
// one road map: a fixed network and fixed cluster hotspots shared by
// providers and customers. --seed draws the points and the event streams;
// keeping the city fixed keeps one run's difficulty close to another's.
constexpr std::uint64_t kNetworkSeed = 42;
constexpr std::uint64_t kCitySeed = 777;

std::vector<cca::Point> Clustered(const cca::RoadNetwork& net, std::size_t count,
                                  std::uint64_t seed) {
  cca::DatasetSpec spec;
  spec.count = count;
  spec.distribution = cca::PointDistribution::kClustered;
  spec.seed = seed;
  spec.cluster_seed = kCitySeed;
  return cca::GeneratePoints(net, spec);
}

std::vector<cca::Provider> Fleet(const std::vector<cca::Point>& positions, std::int32_t k) {
  std::vector<cca::Provider> fleet;
  fleet.reserve(positions.size());
  for (const cca::Point& p : positions) fleet.push_back(cca::Provider{p, k});
  return fleet;
}

// Knuth's Poisson sampler.
std::size_t Poisson(cca::Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  double product = rng.NextDouble();
  std::size_t n = 0;
  while (product > limit) {
    ++n;
    product *= rng.NextDouble();
  }
  return n;
}

// The paper's storage set-up (Section 5.1): 1 KB pages, an LRU buffer of
// 1% of the tree, with a floor so small trees keep their root path.
cca::CustomerDb::Options PaperDbOptions() {
  cca::CustomerDb::Options options;
  options.rtree.page_size = 1024;
  options.buffer_fraction = 0.01;
  options.min_buffer_pages = 16;
  return options;
}

// FNV-1a over the coordinates, kept to 52 bits so it prints exactly: the
// report's fingerprint of the inputs a seed produced.
double Digest(const std::vector<cca::Point>& points) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const cca::Point& p : points) {
    for (const double v : {p.x, p.y}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      h = (h ^ bits) * 0x100000001b3ULL;
    }
  }
  return static_cast<double>(h >> 12);
}

bool SameCost(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

// Exact percentile of retained samples: linear interpolation between the
// closest ranks.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// --- run ledger --------------------------------------------------------------

struct StorageDelta {
  std::uint64_t logical_reads = 0;
  std::uint64_t hits = 0;
  std::uint64_t faults = 0;
  std::uint64_t read_retries = 0;

  static StorageDelta Between(const cca::BufferPool::Stats& a, const cca::BufferPool::Stats& b) {
    return StorageDelta{b.logical_reads - a.logical_reads, b.hits - a.hits, b.faults - a.faults,
                        b.read_retries - a.read_retries};
  }
  void Add(const StorageDelta& o) {
    logical_reads += o.logical_reads;
    hits += o.hits;
    faults += o.faults;
    read_retries += o.read_retries;
  }
};

// Counts one operation produced, read from public return values.
struct OpCounts {
  cca::Metrics flow;  // SolveSspa / Resolve metrics
  cca::Metrics core;  // SolveIda / greedy metrics
  StorageDelta storage;
  std::uint64_t edits = 0;
};

struct Run {
  std::vector<double> setup_s;     // each repetition of the set-up
  std::vector<double> latency_ms;  // one per operation
  double busy_ms = 0.0;            // summed timed regions
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<OpCounts> ops;       // one per loop iteration
  std::map<std::string, double> layer;  // workload-specific per-layer values
  std::map<std::string, double> report; // printed, not gated
  Fold fold;
  std::vector<cca::trace::Event> kept_spans;  // first iterations, for --spans-out
  std::vector<std::uint64_t> kept_span_op;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string git_sha = "unknown";
  std::string spans_out;
  // Loop iterations every run completes even past --seconds (p90 needs ten
  // samples beyond it), and the prefix the per-layer counts average over so
  // they repeat exactly for one seed.
  std::size_t min_ops = 100;
  std::size_t count_ops = 100;
  std::size_t setup_reps = 3;
};

// A loop stops here even short of min_ops, so a slow host cannot stretch
// a run without bound.
constexpr double kHardCapSeconds = 100.0;

// Closed loop: the next iteration starts when the previous returns. Runs
// until --seconds have passed and at least min_ops operations (latency
// samples) completed. Spans recorded during an iteration are drained and
// folded right after it, so tracing memory stays bounded.
void Loop(const Config& cfg, const Run& run, const std::function<void(std::size_t)>& iteration) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed_s = MsSince(t0) / 1000.0;
    if (elapsed_s >= kHardCapSeconds) break;
    if (elapsed_s >= cfg.seconds && run.latency_ms.size() >= cfg.min_ops) break;
    iteration(i);
  }
}

void CollectSpans(const Config& cfg, Run* run, std::size_t op) {
  if (!cfg.trace) return;
  std::vector<cca::trace::Event> events = cca::trace::Drain();
  if (op < cfg.count_ops && !cfg.spans_out.empty()) {
    for (const auto& e : events) {
      run->kept_spans.push_back(e);
      run->kept_span_op.push_back(op);
    }
  }
  run->fold.AddOp(std::move(events));
}

// Drops spans recorded outside an operation (out-of-loop checks).
void DiscardSpans(const Config& cfg) {
  if (cfg.trace) cca::trace::Drain();
}

// --- dispatch ----------------------------------------------------------------
// One caller drives AssignmentEngine over a stationary churn stream:
// Poisson customer arrivals and departures (lambda = |P|/200, departures
// mean-reverting to |P|), balanced provider churn, and every 20th step a
// burst at 10x the churn. Each step ends with Resolve().

struct DispatchShape {
  std::size_t nq, np;
  std::int32_t k;
  std::size_t cold_check_every;
};

void RunDispatch(const Config& cfg, Run* run) {
  const DispatchShape s =
      cfg.tiny ? DispatchShape{6, 150, 40, 10} : DispatchShape{30, 1500, 80, 150};
  using Engine = cca::AssignmentEngine;

  std::unique_ptr<Engine> engine;
  std::vector<Engine::Id> customers, providers;
  std::vector<cca::Point> customer_pool, provider_pool;
  std::size_t next_customer = 0, next_provider = 0;
  for (std::size_t rep = 0; rep < cfg.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    const cca::RoadNetwork net = cca::DefaultNetwork(kNetworkSeed);
    customer_pool = Clustered(net, s.np * 16, Mix(cfg.seed, 3));
    provider_pool = Clustered(net, s.nq * 16, Mix(kCitySeed, 4));
    run->report["input_digest"] = Digest(customer_pool);
    engine = std::make_unique<Engine>();
    customers.clear();
    providers.clear();
    next_customer = next_provider = 0;
    for (std::size_t q = 0; q < s.nq; ++q) {
      providers.push_back(engine->InsertProvider(provider_pool[next_provider++], s.k).value());
    }
    for (std::size_t p = 0; p < s.np; ++p) {
      customers.push_back(engine->InsertCustomer(customer_pool[next_customer++]).value());
    }
    const Engine::ResolveOutcome first = engine->Resolve();
    run->setup_s.push_back(MsSince(t0) / 1000.0);
    std::string error;
    if (!cca::ValidateMatching(engine->problem(), first.matching, &error)) {
      run->Fail("dispatch set-up resolve: " + error);
    }
  }
  DiscardSpans(cfg);

  // The seed draws the demand: customer positions, arrivals and
  // departures. The fleet's positions and churn schedule belong to the
  // city, like the hotspots: with a seeded fleet of 30, one run's mean
  // step cost followed its fleet, and p50 moved by 20% between seeds.
  cca::Rng rng(Mix(cfg.seed, 5));
  cca::Rng fleet_rng(Mix(kCitySeed, 6));
  const double lambda = static_cast<double>(s.np) / 200.0;
  const double provider_rate = 0.05;
  const std::size_t burst_headroom = 2 * static_cast<std::size_t>(10.0 * lambda);
  auto capacity = [&] { return static_cast<std::size_t>(s.k) * providers.size(); };
  cca::SspaConfig cold_config;
  cold_config.allow_overflow = true;  // as the engine solves

  Loop(cfg, *run, [&](std::size_t i) {
    const std::size_t step = i + 1;
    const double mult = step % 20 == 0 ? 10.0 : 1.0;  // rush-hour burst
    const std::size_t arrivals = Poisson(rng, lambda * mult);
    const std::size_t departures = Poisson(
        rng, lambda * mult * static_cast<double>(customers.size()) / static_cast<double>(s.np));
    const std::size_t provider_arrivals = Poisson(fleet_rng, provider_rate * mult);
    const std::size_t provider_departures =
        Poisson(fleet_rng, provider_rate * mult * static_cast<double>(providers.size()) /
                               static_cast<double>(s.nq));
    // Departure picks are drawn before the timed region starts.
    std::vector<std::uint64_t> picks, fleet_picks;
    for (std::size_t d = 0; d < departures; ++d) picks.push_back(rng.Next());
    for (std::size_t d = 0; d < provider_departures; ++d) fleet_picks.push_back(fleet_rng.Next());

    OpCounts counts;
    Engine::ResolveOutcome out;
    const auto t0 = Clock::now();
    {
      Span op("op");
      op.Arg("op", i);
      for (std::size_t a = 0; a < arrivals && customers.size() < capacity(); ++a) {
        Span span("runtime.edit");
        ++counts.edits;
        customers.push_back(
            engine->InsertCustomer(customer_pool[next_customer++ % customer_pool.size()]).value());
      }
      for (const std::uint64_t pick : picks) {
        if (customers.size() <= s.np / 2) continue;
        const std::size_t at = pick % customers.size();
        Span span("runtime.edit");
        ++counts.edits;
        engine->RemoveCustomer(customers[at]);
        customers[at] = customers.back();
        customers.pop_back();
      }
      for (std::size_t a = 0; a < provider_arrivals; ++a) {
        Span span("runtime.edit");
        ++counts.edits;
        providers.push_back(
            engine->InsertProvider(provider_pool[next_provider++ % provider_pool.size()], s.k)
                .value());
      }
      for (const std::uint64_t pick : fleet_picks) {
        // Keep the fleet ample: capacity stays above demand plus two
        // bursts' worth of arrivals.
        if (providers.size() <= s.nq / 2 ||
            capacity() - static_cast<std::size_t>(s.k) < customers.size() + burst_headroom) {
          continue;
        }
        const std::size_t at = pick % providers.size();
        Span span("runtime.edit");
        ++counts.edits;
        engine->RemoveProvider(providers[at]);
        providers[at] = providers.back();
        providers.pop_back();
      }
      Span span("runtime.resolve");
      out = engine->Resolve();
    }
    const double ms = MsSince(t0);
    CollectSpans(cfg, run, i);
    run->latency_ms.push_back(ms);
    run->busy_ms += ms;
    ++run->attempted;
    counts.flow = out.metrics;
    run->ops.push_back(counts);

    std::string error;
    if (!cca::ValidateMatching(engine->problem(), out.matching, &error)) {
      run->Fail("dispatch step " + std::to_string(step) + ": " + error);
    } else if (out.degraded || out.unassigned_units != 0) {
      run->Fail("dispatch step " + std::to_string(step) + ": degraded or unassigned");
    } else if (step % s.cold_check_every == 0) {
      const cca::SspaResult cold = cca::SolveSspa(engine->problem(), cold_config);
      DiscardSpans(cfg);
      if (!SameCost(out.cost, cold.matching.cost())) {
        run->Fail("dispatch step " + std::to_string(step) + ": warm cost differs from cold");
      }
      run->report["cold_checks"] += 1;
    }
    if (i + 1 == cfg.count_ops) {
      run->layer["runtime.warm_adoption_ratio"] = engine->stats().warm_adoption_ratio();
    }
  });
}

// --- batch -------------------------------------------------------------------
// One cold SolveSspa per operation on a fresh capacity-scarce instance. The
// relax grid is built through HierarchicalGrid's public constructor, with
// the options SolveSspa would pick, and handed over as shared_hier_grid.

struct BatchShape {
  std::size_t nq, np;
  std::int32_t k;
};

cca::HierarchicalGrid::Options SspaHierOptions(const cca::SspaConfig& config) {
  cca::HierarchicalGrid::Options opts;
  opts.fine_target_per_cell = config.grid_target_per_cell;
  opts.coarse_target_per_cell = 16.0 * config.grid_target_per_cell;
  opts.split_threshold = config.hier_split_threshold;
  return opts;
}

void RunBatch(const Config& cfg, Run* run) {
  const BatchShape s = cfg.tiny ? BatchShape{10, 500, 20} : BatchShape{50, 5000, 40};
  std::unique_ptr<cca::RoadNetwork> net;
  auto instance = [&](std::uint64_t seed, std::uint64_t salt) {
    cca::Problem problem;
    problem.providers = Fleet(Clustered(*net, s.nq, Mix(seed, salt * 2)), s.k);
    problem.customers = Clustered(*net, s.np, Mix(seed, salt * 2 + 1));
    return problem;
  };
  const cca::SspaConfig base;
  auto solve = [&](const cca::Problem& problem) {
    std::unique_ptr<cca::HierarchicalGrid> grid;
    {
      Span span("geo.build");
      grid = std::make_unique<cca::HierarchicalGrid>(problem.customers, SspaHierOptions(base));
    }
    cca::SspaConfig config = base;
    config.shared_hier_grid = grid.get();
    Span span("flow.solve");
    return cca::SolveSspa(problem, config);
  };

  // Set-up: the network and one warm-up solve. The warm-up instance is the
  // city's, not the seed's: one solve's cost varies by 2x across instances.
  for (std::size_t rep = 0; rep < cfg.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    net = std::make_unique<cca::RoadNetwork>(cca::DefaultNetwork(kNetworkSeed));
    const cca::Problem first = instance(kCitySeed, 0);
    const cca::SspaResult r = solve(first);
    run->setup_s.push_back(MsSince(t0) / 1000.0);
    std::string error;
    if (!cca::ValidateMatching(first, r.matching, &error)) run->Fail("batch warm-up: " + error);
  }
  DiscardSpans(cfg);

  Loop(cfg, *run, [&](std::size_t i) {
    const cca::Problem problem = instance(cfg.seed, i);
    if (i == 0) run->report["input_digest"] = Digest(problem.customers);
    cca::SspaResult r;
    const auto t0 = Clock::now();
    {
      Span op("op");
      op.Arg("op", i);
      r = solve(problem);
    }
    const double ms = MsSince(t0);
    CollectSpans(cfg, run, i);
    run->latency_ms.push_back(ms);
    run->busy_ms += ms;
    ++run->attempted;
    OpCounts counts;
    counts.flow = r.metrics;
    run->ops.push_back(counts);
    std::string error;
    if (!cca::ValidateMatching(problem, r.matching, &error)) {
      run->Fail("batch op " + std::to_string(i) + ": " + error);
    }
  });
}

// --- paper -------------------------------------------------------------------
// SolveIda with the paper's grouped R-tree discovery over a 1 KB-page tree
// behind a 1% LRU buffer, emptied before every operation.

struct PaperShape {
  std::size_t nq, np;
  std::int32_t k;
  std::size_t sspa_check_every;
};

void RunPaper(const Config& cfg, Run* run) {
  const PaperShape s = cfg.tiny ? PaperShape{10, 2000, 40, 5} : PaperShape{50, 20000, 80, 40};
  std::unique_ptr<cca::RoadNetwork> net;
  std::unique_ptr<cca::CustomerDb> db;
  cca::Problem problem;
  std::vector<double> db_build_ms;
  for (std::size_t rep = 0; rep < cfg.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    net = std::make_unique<cca::RoadNetwork>(cca::DefaultNetwork(kNetworkSeed));
    problem.customers = Clustered(*net, s.np, Mix(cfg.seed, 13));
    run->report["input_digest"] = Digest(problem.customers);
    db.reset();
    const auto t1 = Clock::now();
    db = std::make_unique<cca::CustomerDb>(problem.customers, PaperDbOptions());
    db_build_ms.push_back(MsSince(t1));
    run->setup_s.push_back(MsSince(t0) / 1000.0);
  }
  run->layer["core.db_build_ms"] = Median(db_build_ms);
  DiscardSpans(cfg);
  cca::ExactConfig config;
  config.discovery_backend = cca::DiscoveryBackend::kRTreeGrouped;
  std::vector<double> charged_io_ms;

  Loop(cfg, *run, [&](std::size_t i) {
    problem.providers = Fleet(Clustered(*net, s.nq, Mix(cfg.seed, 1000 + i)), s.k);
    const cca::BufferPool::Stats before = db->tree()->buffer().stats();
    cca::ExactResult r;
    const auto t0 = Clock::now();
    {
      Span op("op");
      op.Arg("op", i);
      {
        Span span("storage.cool_down");
        db->CoolDown();
      }
      Span span("core.solve");
      r = cca::SolveIda(problem, db.get(), config);
    }
    const double ms = MsSince(t0);
    CollectSpans(cfg, run, i);
    run->latency_ms.push_back(ms);
    run->busy_ms += ms;
    ++run->attempted;
    OpCounts counts;
    counts.core = r.metrics;
    counts.storage = StorageDelta::Between(before, db->tree()->buffer().stats());
    run->ops.push_back(counts);
    charged_io_ms.push_back(r.metrics.io_millis());

    std::string error;
    if (!cca::ValidateMatching(problem, r.matching, &error)) {
      run->Fail("paper op " + std::to_string(i) + ": " + error);
    } else if (counts.storage.read_retries != 0) {
      run->Fail("paper op " + std::to_string(i) + ": storage read retries");
    } else if (i % s.sspa_check_every == 0) {
      const cca::SspaResult ref = cca::SolveSspa(problem);
      DiscardSpans(cfg);
      if (!SameCost(r.matching.cost(), ref.matching.cost())) {
        run->Fail("paper op " + std::to_string(i) + ": IDA cost differs from SSPA");
      }
      run->report["sspa_checks"] += 1;
    }
  });
  run->report["charged_io_ms"] = Median(charged_io_ms);
  run->layer["storage.charged_io_ms"] = run->report["charged_io_ms"];
}

// --- serve -------------------------------------------------------------------
// A QueryRunner with one worker per core over one SharedIndex; each
// operation is one query of a mixed SSPA / IDA / greedy batch with varied
// fleets and capacities. Latency is per query; throughput counts queries
// over batch wall time.

struct ServeShape {
  std::size_t np;
  std::size_t nq_lo, nq_hi;
  std::int32_t k_lo, k_hi;
  std::size_t queries_per_thread;
};

void RunServe(const Config& cfg, Run* run) {
  const ServeShape s =
      cfg.tiny ? ServeShape{300, 5, 10, 10, 40, 2} : ServeShape{2000, 25, 40, 25, 45, 4};
  const std::size_t threads = std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN));
  std::unique_ptr<cca::RoadNetwork> net;
  std::vector<cca::Point> customers;
  std::unique_ptr<cca::SharedIndex> index;
  cca::SharedIndex::Options index_options;
  index_options.db = PaperDbOptions();
  std::vector<double> build_ms;
  for (std::size_t rep = 0; rep < cfg.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    net = std::make_unique<cca::RoadNetwork>(cca::DefaultNetwork(kNetworkSeed));
    customers = Clustered(*net, s.np, Mix(cfg.seed, 23));
    run->report["input_digest"] = Digest(customers);
    index.reset();
    const auto t1 = Clock::now();
    index = std::make_unique<cca::SharedIndex>(customers, index_options);
    build_ms.push_back(MsSince(t1));
    run->setup_s.push_back(MsSince(t0) / 1000.0);
  }
  run->layer["runtime.index_build_ms"] = Median(build_ms);
  DiscardSpans(cfg);
  cca::QueryRunner runner(index.get(), threads);

  auto make_batch = [&](std::size_t b) {
    cca::Rng rng(Mix(cfg.seed, 100000 + b));
    std::vector<cca::QuerySpec> batch(threads * s.queries_per_thread);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      cca::QuerySpec& spec = batch[j];
      const auto nq = static_cast<std::size_t>(rng.UniformInt(
          static_cast<std::int64_t>(s.nq_lo), static_cast<std::int64_t>(s.nq_hi)));
      const auto k = static_cast<std::int32_t>(rng.UniformInt(s.k_lo, s.k_hi));
      spec.problem.customers = customers;
      spec.problem.providers = Fleet(Clustered(*net, nq, rng.Next()), k);
      switch ((b * batch.size() + j) % 3) {
        case 0:
          spec.solver = cca::QuerySolver::kSspa;
          break;
        case 1:
          spec.solver = cca::QuerySolver::kIda;
          spec.exact.discovery_backend = cca::DiscoveryBackend::kRTreeGrouped;
          break;
        default:
          spec.solver = cca::QuerySolver::kGreedy;
          break;
      }
    }
    return batch;
  };

  std::vector<double> tail_ratios;
  double query_ms = 0.0;
  Loop(cfg, *run, [&](std::size_t b) {
    const std::vector<cca::QuerySpec> batch = make_batch(b);
    const cca::BufferPool::Stats before = index->db()->tree()->buffer().stats();
    std::vector<cca::QueryOutcome> outcomes;
    const auto t0 = Clock::now();
    {
      Span op("op");
      op.Arg("op", b);
      Span span("runtime.run");
      outcomes = runner.Run(batch);
    }
    const double ms = MsSince(t0);
    CollectSpans(cfg, run, b);
    run->busy_ms += ms;
    OpCounts counts;
    counts.storage = StorageDelta::Between(before, index->db()->tree()->buffer().stats());
    std::vector<double> lat;
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
      const cca::QueryOutcome& o = outcomes[j];
      lat.push_back(o.latency_millis);
      run->latency_ms.push_back(o.latency_millis);
      query_ms += o.latency_millis;
      ++run->attempted;
      (batch[j].solver == cca::QuerySolver::kSspa ? counts.flow : counts.core).Merge(o.metrics);
      std::string error;
      if (!cca::ValidateMatching(batch[j].problem, o.matching, &error)) {
        run->Fail("serve batch " + std::to_string(b) + " query " + std::to_string(j) + ": " +
                  error);
      }
    }
    tail_ratios.push_back(*std::max_element(lat.begin(), lat.end()) /
                          std::max(1e-9, Median(lat)));
    if (counts.storage.read_retries != 0) run->Fail("serve: storage read retries");
    run->ops.push_back(counts);

    if (b == 0) {
      // Outcomes must not depend on the worker count.
      cca::QueryRunner serial(index.get(), 1);
      const std::vector<cca::QueryOutcome> ref = serial.Run(batch);
      DiscardSpans(cfg);
      for (std::size_t j = 0; j < ref.size(); ++j) {
        if (ref[j].matching.cost() != outcomes[j].matching.cost() ||
            ref[j].metrics.dijkstra_pops != outcomes[j].metrics.dijkstra_pops) {
          run->Fail("serve query " + std::to_string(j) + ": differs from a 1-worker rerun");
        }
      }
    }
  });
  run->layer["runtime.batch_tail_ratio"] = Median(tail_ratios);
  run->layer["runtime.pool_busy_frac"] =
      query_ms / (static_cast<double>(threads) * std::max(1e-9, run->busy_ms));
  run->report["threads"] = static_cast<double>(threads);
}

// --- metrics -----------------------------------------------------------------

// Peak resident set of this process image, from /proc/self/status. Not
// getrusage's ru_maxrss, which survives execve and so can report the
// launching process's peak instead.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

struct Metric {
  double value;
  const char* unit;
};

std::map<std::string, Metric> EndToEnd(const Run& run) {
  std::map<std::string, Metric> m;
  m["setup_s"] = {Median(run.setup_s), "s"};
  m["p50_ms"] = {Percentile(run.latency_ms, 0.50), "ms"};
  m["p90_ms"] = {Percentile(run.latency_ms, 0.90), "ms"};
  m["ops_per_s"] = {static_cast<double>(run.latency_ms.size()) / (run.busy_ms / 1000.0), "1/s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return m;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::map<std::string, Metric> PerLayer(const Config& cfg, const Run& run) {
  std::map<std::string, Metric> m;
  const Fold& f = run.fold;
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, f.ops()));
  auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  auto span_ms_per_op = [&](const char* name) { return ms(f.span(name).total_ns) / ops; };
  // Values a workload measured itself; 0 where it does not apply.
  auto measured = [&](const char* key) {
    const auto it = run.layer.find(key);
    return it == run.layer.end() ? 0.0 : it->second;
  };

  // Counts: per-iteration means over the first count_ops iterations, so
  // they repeat exactly for one seed whatever the machine speed.
  cca::Metrics flow, core, flow_all;
  StorageDelta storage;
  std::uint64_t edits = 0;
  const std::size_t prefix = std::min(cfg.count_ops, run.ops.size());
  for (std::size_t i = 0; i < run.ops.size(); ++i) {
    flow_all.Merge(run.ops[i].flow);
    if (i >= prefix) continue;
    flow.Merge(run.ops[i].flow);
    core.Merge(run.ops[i].core);
    storage.Add(run.ops[i].storage);
    edits += run.ops[i].edits;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, prefix));
  auto per_op = [&](std::uint64_t c) { return static_cast<double>(c) / n; };

  // Layer table: self time per iteration and share of iteration wall time.
  const double wall = static_cast<double>(f.op_wall_ns() + f.worker_wall_ns());
  double named = 0.0;
  for (int l = kRuntime; l < kNumLayers; ++l) {
    const std::string name = kLayerNames[l];
    const double self_ns = static_cast<double>(f.layer_self_ns(static_cast<Layer>(l)));
    m[name + ".self_ms"] = {self_ns / 1e6 / ops, "ms"};
    m[name + ".share"] = {Ratio(self_ns, wall), "fraction"};
    named += self_ns;
  }
  m["trace.coverage"] = {Ratio(named, wall), "fraction"};
  std::uint64_t spans = 0;
  for (const auto& [name, t] : f.by_name()) spans += t.count;
  m["trace.spans_per_op"] = {static_cast<double>(spans) / ops, "spans/op"};

  // runtime
  const SpanTotals edit = f.span("runtime.edit");
  m["runtime.edit_us"] = {Ratio(static_cast<double>(edit.total_ns) / 1e3,
                                static_cast<double>(edit.count)),
                          "us"};
  m["runtime.resolve_self_ms"] = {
      ms(f.span("runtime.resolve").self_ns + f.span("engine.resolve").self_ns) / ops, "ms"};
  m["runtime.edits"] = {per_op(edits), "count"};
  m["runtime.warm_adoption_ratio"] = {measured("runtime.warm_adoption_ratio"), "ratio"};
  m["runtime.pool_busy_frac"] = {measured("runtime.pool_busy_frac"), "ratio"};
  m["runtime.batch_tail_ratio"] = {measured("runtime.batch_tail_ratio"), "ratio"};
  m["runtime.index_build_ms"] = {measured("runtime.index_build_ms"), "ms"};

  // flow
  const double flow_ns = static_cast<double>(f.layer_outer_ns(kFlow));
  m["flow.solve_ms"] = {flow_ns / 1e6 / ops, "ms"};
  m["flow.pops"] = {per_op(flow.dijkstra_pops), "count"};
  m["flow.relaxes"] = {per_op(flow.dijkstra_relaxes), "count"};
  m["flow.augmentations"] = {per_op(flow.augmentations), "count"};
  m["flow.distances_computed"] = {per_op(flow.distances_computed), "count"};
  m["flow.ns_per_pop"] = {Ratio(flow_ns, static_cast<double>(flow_all.dijkstra_pops)), "ns"};
  m["flow.prune_ratio"] = {Ratio(static_cast<double>(flow.relaxes_pruned),
                                 static_cast<double>(flow.dijkstra_relaxes + flow.relaxes_pruned)),
                           "ratio"};
  m["flow.dual_repairs"] = {per_op(flow.dual_repairs), "count"};
  m["flow.warm_units_adopted"] = {per_op(flow.warm_units_adopted), "count"};
  m["flow.dijkstra_share"] = {Ratio(static_cast<double>(f.span("sspa.dijkstra").total_ns), flow_ns),
                              "fraction"};
  m["flow.repair_ms"] = {span_ms_per_op("sspa.repair_duals"), "ms"};
  m["flow.adopt_ms"] = {span_ms_per_op("sspa.adopt_flow"), "ms"};

  // geo
  m["geo.build_ms"] = {span_ms_per_op("geo.build"), "ms"};
  m["geo.coarse_tails_pruned"] = {per_op(flow.coarse_tails_pruned), "count"};
  m["geo.coarse_cells_descended"] = {per_op(flow.coarse_cells_descended), "count"};
  m["geo.descend_ratio"] = {
      Ratio(static_cast<double>(flow.coarse_cells_descended),
            static_cast<double>(flow.coarse_cells_descended + flow.coarse_tails_pruned)),
      "ratio"};

  // core
  m["core.solve_ms"] = {ms(f.layer_outer_ns(kCore)) / ops, "ms"};
  m["core.esub"] = {per_op(core.edges_inserted), "count"};
  m["core.dijkstra_runs"] = {per_op(core.dijkstra_runs), "count"};
  m["core.invalid_paths"] = {per_op(core.invalid_paths), "count"};
  m["core.nn_searches"] = {per_op(core.nn_searches), "count"};
  m["core.db_build_ms"] = {measured("core.db_build_ms"), "ms"};

  // rtree
  m["rtree.node_accesses"] = {per_op(core.node_accesses), "count"};
  m["rtree.nodes_per_nn"] = {Ratio(static_cast<double>(core.node_accesses),
                                   static_cast<double>(core.nn_searches)),
                             "ratio"};

  // storage
  m["storage.logical_reads"] = {per_op(storage.logical_reads), "count"};
  m["storage.faults"] = {per_op(storage.faults), "count"};
  m["storage.hit_ratio"] = {Ratio(static_cast<double>(storage.hits),
                                  static_cast<double>(storage.logical_reads)),
                            "ratio"};
  m["storage.read_retries"] = {per_op(storage.read_retries), "count"};
  m["storage.charged_io_ms"] = {measured("storage.charged_io_ms"), "ms"};
  return m;
}

// --- output ------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintLayerTable(const Run& run) {
  const Fold& f = run.fold;
  const double wall = static_cast<double>(f.op_wall_ns() + f.worker_wall_ns());
  std::printf("per-layer table (%llu iterations, %.3f ms span wall):\n",
              static_cast<unsigned long long>(f.ops()), wall / 1e6);
  std::printf("  %-8s %-22s %12s %14s %8s\n", "layer", "span", "count", "self_ms", "share");
  for (int l = 0; l < kNumLayers; ++l) {
    for (const auto& [name, t] : f.by_name()) {
      if (t.layer != l) continue;
      std::printf("  %-8s %-22s %12llu %14.3f %8.4f\n", kLayerNames[l], name.c_str(),
                  static_cast<unsigned long long>(t.count), static_cast<double>(t.self_ns) / 1e6,
                  Ratio(static_cast<double>(t.self_ns), wall));
    }
  }
}

bool WriteSpans(const std::string& path, const Run& run) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Parent = nearest earlier open span of the same thread with a smaller
  // depth; events are written in start order per thread.
  std::vector<std::size_t> order(run.kept_spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto& ev = run.kept_spans;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (ev[a].tid != ev[b].tid) return ev[a].tid < ev[b].tid;
    if (ev[a].start_ns != ev[b].start_ns) return ev[a].start_ns < ev[b].start_ns;
    return ev[a].depth < ev[b].depth;
  });
  std::fprintf(f, "{\"spans\": [\n");
  std::vector<std::size_t> stack;  // positions in `order`
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const auto& e = ev[order[pos]];
    while (!stack.empty() && (ev[order[stack.back()]].tid != e.tid ||
                              ev[order[stack.back()]].depth >= e.depth)) {
      stack.pop_back();
    }
    const long parent = stack.empty() ? -1 : static_cast<long>(stack.back());
    std::fprintf(f,
                 "%s  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"tid\": %u, \"parent\": %ld, \"op\": %llu}",
                 pos == 0 ? "" : ",\n", pos, e.name, static_cast<unsigned long long>(e.start_ns),
                 static_cast<unsigned long long>(e.start_ns + e.dur_ns), e.tid, parent,
                 static_cast<unsigned long long>(run.kept_span_op[order[pos]]));
    stack.push_back(pos);
  }
  std::fprintf(f, "\n], \"dropped\": %llu}\n",
               static_cast<unsigned long long>(cca::trace::DroppedEvents()));
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload dispatch|batch|paper|serve --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--min-ops N] "
               "[--git-sha SHA] [--spans-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return Usage();
      cfg.tiny = value == "tiny";
    } else if (flag == "--git-sha") {
      cfg.git_sha = value;
    } else if (flag == "--min-ops") {
      cfg.min_ops = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--spans-out") {
      cfg.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (cfg.seconds <= 0.0) return Usage();
  if (cfg.tiny) {
    cfg.min_ops = std::min<std::size_t>(cfg.min_ops, 10);
    cfg.count_ops = 10;
  }

#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build without NDEBUG (Debug engines re-solve "
                       "cold inside every Resolve)\n");
  return 2;
#endif
  if (cfg.trace != cca::trace::kCompiledIn) {
    std::fprintf(stderr, "perfbench: --trace %d needs a build with CCA_ENABLE_TRACING=%s\n",
                 cfg.trace ? 1 : 0, cfg.trace ? "ON" : "OFF");
    return 2;
  }

  std::map<std::string, void (*)(const Config&, Run*)> workloads = {
      {"dispatch", RunDispatch}, {"batch", RunBatch}, {"paper", RunPaper}, {"serve", RunServe}};
  const auto it = workloads.find(cfg.workload);
  if (it == workloads.end()) return Usage();

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("provenance: {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"size\": %s, "
              "\"nproc\": %ld, \"compiler\": %s, \"build_type\": %s, \"tracing\": %s, "
              "\"git_sha\": %s}\n",
              JsonString(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
              Number(cfg.seconds).c_str(), cfg.tiny ? "\"tiny\"" : "\"full\"", nproc,
              JsonString(PERFBENCH_COMPILER).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              cfg.trace ? "true" : "false", JsonString(cfg.git_sha).c_str());

  if (cfg.trace) cca::trace::Start();
  Run run;
  it->second(cfg, &run);
  if (cfg.trace) cca::trace::Stop();

  bool correct = run.failed == 0 && run.attempted > 0;
  for (const std::string& e : run.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  const std::size_t n = run.latency_ms.size();
  std::printf("latency samples: n=%zu; p50 has %zu beyond, p90 %zu, p99 %zu\n", n,
              n - static_cast<std::size_t>(0.50 * static_cast<double>(n)),
              n - static_cast<std::size_t>(0.90 * static_cast<double>(n)),
              n - static_cast<std::size_t>(0.99 * static_cast<double>(n)));
  run.report["p99_ms"] = Percentile(run.latency_ms, 0.99);
  run.report["error_rate"] =
      Ratio(static_cast<double>(run.failed), static_cast<double>(run.attempted));
  std::map<std::string, Metric> metrics = EndToEnd(run);
  if (cfg.trace) {
    PrintLayerTable(run);
    metrics.merge(PerLayer(cfg, run));
    // The named layers must account for the operations' wall time; what
    // they leave is the benchmark's own glue between calls.
    const double coverage = metrics.at("trace.coverage").value;
    std::printf("layer self times cover %.4f of operation wall time\n", coverage);
    if (coverage < 0.95) {
      std::printf("CHECK FAILED: layer self times cover less than 95%% of wall time\n");
      correct = false;
    }
    if (!cfg.spans_out.empty() && !WriteSpans(cfg.spans_out, run)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", cfg.spans_out.c_str());
      return 1;
    }
  }
  for (const auto& [name, metric] : metrics) {
    std::printf("%s=%s %s\n", name.c_str(), Number(metric.value).c_str(), metric.unit);
  }
  for (const auto& [name, value] : run.report) {
    std::printf("report %s=%s\n", name.c_str(), Number(value).c_str());
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + Number(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  json += "}, \"report\": {";
  first = true;
  for (const auto& [name, value] : run.report) {
    json += (first ? "" : ", ") + JsonString(name) + ": " + Number(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
