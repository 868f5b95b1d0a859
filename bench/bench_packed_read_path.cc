// Dynamic vs packed read path: the same BBS / BBRS / window-query
// workloads executed once against the pointer-based R*-tree and once
// against its frozen PackedRTree image. Results are bit-identical by
// construction (the parity tests pin that); this bench measures what the
// arena layout and the span kernels buy in wall time, and records the
// node-read counters so the regression gate can assert that packed work
// equals dynamic work while packed time beats dynamic time.
//
// Configs come in dynamic/packed pairs per algorithm:
//   bbs-{dynamic,packed}     BbsDynamicSkyline per workload query
//   bbrs-{dynamic,packed}    BbrsReverseSkyline per workload query
//   window-{dynamic,packed}  WindowSkyline + WindowEmpty probes
//   whynot-{dynamic,packed}  engine Explain + SafeRegion + ModifyBoth per
//                            fresh (q, c), use_packed_read_path off / on
// plus a "freeze" config capturing the publish-time cost of
// PackedRTree::Freeze itself.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/engine.h"
#include "index/packed_rtree.h"
#include "index/rtree.h"
#include "reverse_skyline/bbrs.h"
#include "reverse_skyline/window_query.h"
#include "skyline/bbs.h"

namespace wnrs::bench {
namespace {

struct Workload {
  std::vector<Point> queries;     // BBS origins / BBRS query products.
  std::vector<Point> customers;   // Window-query customers (paired).
  std::vector<size_t> customer_ids;  // Their dataset indices.
};

Workload MakeQueries(const Dataset& data, size_t count, uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.queries.reserve(count);
  w.customers.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    Point q = data.points[rng.NextUint64(data.size())];
    for (size_t i = 0; i < q.dims(); ++i) {
      q[i] *= rng.NextDouble(0.95, 1.05);
    }
    w.queries.push_back(std::move(q));
    w.customer_ids.push_back(rng.NextUint64(data.size()));
    w.customers.push_back(data.points[w.customer_ids.back()]);
  }
  return w;
}

int Run(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  BenchReporter reporter("packed_read_path", args);

  const size_t n = args.short_mode ? 20'000 : 100'000;
  const size_t num_queries = args.short_mode ? 12 : 48;
  const Dataset data = MakeDataset("CarDB", n, 9100);
  const Workload workload = MakeQueries(data, num_queries, 9101);

  RStarTree tree(data.dims);
  for (size_t i = 0; i < data.points.size(); ++i) {
    tree.Insert(data.points[i], static_cast<RStarTree::Id>(i));
  }

  reporter.Begin("freeze");
  PackedRTree packed = PackedRTree::Freeze(tree);
  reporter.End();

  // Checksums keep the optimizer honest and double as a cheap parity
  // assertion between the paired configs.
  size_t dynamic_sum = 0;
  size_t packed_sum = 0;

  struct Timing {
    const char* label;
    double dynamic_ms = 0.0;
    double packed_ms = 0.0;
  };
  std::vector<Timing> timings;

  WallTimer timer;

  // --- BBS: dynamic skyline per query origin. ---
  Timing bbs{"bbs"};
  reporter.Begin("bbs-dynamic");
  timer.Restart();
  for (const Point& q : workload.queries) {
    dynamic_sum += BbsDynamicSkyline(tree, q).size();
  }
  bbs.dynamic_ms = timer.ElapsedMillis();
  reporter.End();
  reporter.Begin("bbs-packed");
  timer.Restart();
  for (const Point& q : workload.queries) {
    packed_sum += BbsDynamicSkyline(packed, q).size();
  }
  bbs.packed_ms = timer.ElapsedMillis();
  reporter.End();
  timings.push_back(bbs);

  // --- BBRS: full reverse skyline per query product. ---
  Timing bbrs{"bbrs"};
  reporter.Begin("bbrs-dynamic");
  timer.Restart();
  for (const Point& q : workload.queries) {
    dynamic_sum += BbrsReverseSkyline(tree, q).size();
  }
  bbrs.dynamic_ms = timer.ElapsedMillis();
  reporter.End();
  reporter.Begin("bbrs-packed");
  timer.Restart();
  for (const Point& q : workload.queries) {
    packed_sum += BbrsReverseSkyline(packed, q).size();
  }
  bbrs.packed_ms = timer.ElapsedMillis();
  reporter.End();
  timings.push_back(bbrs);

  // --- Window queries: the frontier skyline plus the emptiness probe
  // that dominates BBRS verification. ---
  Timing window{"window"};
  reporter.Begin("window-dynamic");
  timer.Restart();
  for (size_t k = 0; k < workload.queries.size(); ++k) {
    const Point& q = workload.queries[k];
    const Point& c = workload.customers[k];
    dynamic_sum += WindowSkyline(tree, c, q, q).size();
    dynamic_sum += WindowEmpty(tree, c, q) ? 1 : 0;
  }
  window.dynamic_ms = timer.ElapsedMillis();
  reporter.End();
  reporter.Begin("window-packed");
  timer.Restart();
  for (size_t k = 0; k < workload.queries.size(); ++k) {
    const Point& q = workload.queries[k];
    const Point& c = workload.customers[k];
    packed_sum += WindowSkyline(packed, c, q, q).size();
    packed_sum += WindowEmpty(packed, c, q) ? 1 : 0;
  }
  window.packed_ms = timer.ElapsedMillis();
  reporter.End();
  timings.push_back(window);

  // --- Why-not kinds through the engine: the same (q, c) stream with the
  // packed read path off and on. Every q is fresh to both engines, so
  // each call builds its RSL and safe region. ---
  WhyNotEngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.use_packed_read_path = false;
  const WhyNotEngine dynamic_engine(data, engine_options);
  engine_options.use_packed_read_path = true;
  const WhyNotEngine packed_engine(data, engine_options);
  auto whynot_sum = [&](const WhyNotEngine& engine) {
    size_t sum = 0;
    for (size_t k = 0; k < workload.queries.size(); ++k) {
      const Point& q = workload.queries[k];
      const size_t c = workload.customer_ids[k];
      const WhyNotExplanation why = engine.Explain(c, q);
      sum += why.culprits.size() + why.frontier.size();
      sum += engine.SafeRegion(q).region.size();
      const MwqResult mwq = engine.ModifyBoth(c, q);
      sum += mwq.query_candidates.size() + mwq.why_not_candidates.size();
    }
    return sum;
  };
  Timing whynot{"whynot"};
  reporter.Begin("whynot-dynamic");
  timer.Restart();
  dynamic_sum += whynot_sum(dynamic_engine);
  whynot.dynamic_ms = timer.ElapsedMillis();
  reporter.End();
  reporter.Begin("whynot-packed");
  timer.Restart();
  packed_sum += whynot_sum(packed_engine);
  whynot.packed_ms = timer.ElapsedMillis();
  reporter.End();
  timings.push_back(whynot);

  std::printf("\n--- packed read path: CarDB-%zu, %zu queries ---\n", n,
              num_queries);
  std::printf("%-10s %14s %14s %10s\n", "workload", "dynamic (ms)",
              "packed (ms)", "speedup");
  for (const Timing& t : timings) {
    std::printf("%-10s %14.2f %14.2f %9.2fx\n", t.label, t.dynamic_ms,
                t.packed_ms,
                t.packed_ms > 0.0 ? t.dynamic_ms / t.packed_ms : 0.0);
  }
  if (dynamic_sum != packed_sum) {
    std::fprintf(stderr,
                 "PARITY FAILURE: dynamic checksum %zu != packed %zu\n",
                 dynamic_sum, packed_sum);
    return 1;
  }
  std::printf("parity checksum: %zu (dynamic == packed)\n", dynamic_sum);

  return reporter.Write() ? 0 : 1;
}

}  // namespace
}  // namespace wnrs::bench

int main(int argc, char** argv) { return wnrs::bench::Run(argc, argv); }
