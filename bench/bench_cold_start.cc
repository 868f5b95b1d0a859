// Cold start: how fast a process reaches "first answer served" when the
// catalog lives on disk. Both sides start from files — a cold process
// has nothing in RAM — and both end by answering one reverse-skyline
// query, so each config is a complete time-to-first-answer.
//
// Index level (the packed slab itself):
//   rebuild        parse products.csv, bulk-load the R*-tree, freeze the
//                  packed slab, answer.
//   mmap-open      OpenPackedMapped on the saved slab (zero-copy mmap +
//                  header/CRC/structural validation), answer.
//   buffered-open  OpenPackedBuffered (the no-mmap fallback), answer.
//
// Engine level (the full bundle: data.bin + packed slab):
//   engine-rebuild      parse products.csv, construct WhyNotEngine,
//                       answer. Materializing the dynamic R*-tree for
//                       the mutation path bounds this from below; the
//                       bundle saves the parse + bulk-load + freeze.
//   engine-save         publish the bundle (data.bin plus the slab).
//   engine-mmap-open    WhyNotEngine::Open with the slab mmapped: the
//                       slab is checked against data.bin and the
//                       dynamic tree is thawed from it, so no page I/O
//                       happens and the storage_* counters stay 0.
//   engine-buffered-open  the same with mmap disabled.
//
// The CI perf gate holds the headline claim — mmap-open under a tenth
// of rebuild — and a softer engine-level bound:
//   --improvement cold_start/mmap-open/rebuild:wall_ms:0.1
//   --improvement cold_start/engine-mmap-open/engine-rebuild:wall_ms:0.5

#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "data/csv.h"
#include "index/bulk_load.h"
#include "reverse_skyline/bbrs.h"
#include "storage/engine_store.h"
#include "storage/packed_slab.h"

namespace wnrs::bench {
namespace {

int Run(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  BenchReporter reporter("cold_start", args);

  const size_t n = args.short_mode ? 50'000 : 250'000;
  const Dataset data = MakeDataset("CarDB", n, 9300);
  const Point first_query = data.points[n / 2];
  const std::string csv_path = "cold_start_products.csv";
  const std::string slab_path = "cold_start.slab";
  const std::string dir = "cold_start_bundle";

  // Untimed setup: put the products and the slab on disk.
  if (!SaveCsv(data, csv_path).ok()) return 1;
  {
    const RStarTree setup_tree = BulkLoadPoints(data.dims, data.points);
    const PackedRTree setup_packed = PackedRTree::Freeze(setup_tree);
    if (!storage::SavePacked(setup_packed, slab_path).ok()) return 1;
  }

  // --- index level: rebuild vs slab opens. ---
  size_t rebuild_rsl = 0;
  reporter.Begin("rebuild");
  {
    Result<Dataset> products = LoadCsv(csv_path);
    if (!products.ok()) return 1;
    const RStarTree tree =
        BulkLoadPoints(products.value().dims, products.value().points);
    const PackedRTree packed = PackedRTree::Freeze(tree);
    rebuild_rsl = BbrsReverseSkyline(packed, first_query).size();
  }
  reporter.End();

  struct SlabTiming {
    const char* label;
    double wall_ms = 0.0;
    size_t rsl = 0;
    bool mapped = false;
  };
  SlabTiming slab_timings[] = {{"mmap-open"}, {"buffered-open"}};
  WallTimer timer;
  for (SlabTiming& t : slab_timings) {
    const bool use_mmap = t.label[0] == 'm';
    reporter.Begin(t.label);
    timer.Restart();
    Result<PackedRTree> opened = use_mmap
                                     ? storage::OpenPackedMapped(slab_path)
                                     : storage::OpenPackedBuffered(slab_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", t.label,
                   opened.status().ToString().c_str());
      return 1;
    }
    t.rsl = BbrsReverseSkyline(opened.value(), first_query).size();
    t.wall_ms = timer.ElapsedMillis();
    t.mapped = opened->is_mapped();
    reporter.End();
  }

  // --- engine level: full-bundle rebuild vs save vs opens. ---
  size_t engine_rebuild_rsl = 0;
  reporter.Begin("engine-rebuild");
  {
    Result<Dataset> products = LoadCsv(csv_path);
    if (!products.ok()) return 1;
    const WhyNotEngine engine(std::move(products).value(),
                              WhyNotEngineOptions{});
    engine_rebuild_rsl = engine.ReverseSkyline(first_query).size();
  }
  reporter.End();

  const WhyNotEngine publisher(data, WhyNotEngineOptions{});
  reporter.Begin("engine-save");
  const Status saved = publisher.Save(dir);
  reporter.End();
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }

  SlabTiming engine_timings[] = {{"engine-mmap-open"},
                                 {"engine-buffered-open"}};
  for (SlabTiming& t : engine_timings) {
    WhyNotEngineOptions open_options;
    open_options.storage.mmap_packed = t.label[7] == 'm';
    reporter.Begin(t.label);
    timer.Restart();
    Result<std::unique_ptr<WhyNotEngine>> opened =
        WhyNotEngine::Open(dir, open_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", t.label,
                   opened.status().ToString().c_str());
      return 1;
    }
    t.rsl = (*opened)->ReverseSkyline(first_query).size();
    t.wall_ms = timer.ElapsedMillis();
    reporter.End();
  }

  std::printf("\n--- cold start: CarDB-%zu, first query |RSL| = %zu ---\n",
              n, rebuild_rsl);
  std::printf("%-22s %12s %10s\n", "path", "wall (ms)", "|RSL|");
  int failures = 0;
  for (const SlabTiming& t : slab_timings) {
    std::printf("%-22s %12.2f %10zu\n", t.label, t.wall_ms, t.rsl);
    if (t.rsl != rebuild_rsl) ++failures;
  }
  for (const SlabTiming& t : engine_timings) {
    std::printf("%-22s %12.2f %10zu\n", t.label, t.wall_ms, t.rsl);
    if (t.rsl != engine_rebuild_rsl) ++failures;
  }
  if (failures != 0 || engine_rebuild_rsl != rebuild_rsl) {
    std::fprintf(stderr,
                 "PARITY FAILURE: an open path answered a different "
                 "reverse skyline than its rebuild\n");
    return 1;
  }
  std::printf("slab mapped zero-copy: %s\n",
              slab_timings[0].mapped ? "yes" : "no (buffered fallback)");

  std::remove(csv_path.c_str());
  std::remove(slab_path.c_str());
  for (const char* f :
       {storage::kBundleDataFile, storage::kBundlePackedFile,
        storage::kBundlePackedCustomerFile}) {
    std::remove((dir + "/" + f).c_str());
  }
  std::remove(dir.c_str());

  return reporter.Write() ? 0 : 1;
}

}  // namespace
}  // namespace wnrs::bench

int main(int argc, char** argv) { return wnrs::bench::Run(argc, argv); }
