// wnrs_perfbench: the serving benchmark's main program.
//
// Sets up a WnrsServer in this process over the CarDB engine opened from a
// saved bundle, drives it over loopback TCP with an open-loop generator
// (loadgen.h), checks the answers against direct snapshot calls, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// run.py builds this binary and passes the workload, seed, run length and
// the cache directory; every other setting is fixed below or in the
// workload's spec (workload.cc). `--prepare` only writes the bundle and the
// approx-DSL store into the cache directory (a separate process, so its memory never shows in the
// measured run's resident set).

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "data/generators.h"
#include "geometry/kernels.h"
#include "loadgen.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/backend.h"
#include "shard/sharded_backend.h"
#include "shard/sharded_engine.h"
#include "stats.h"
#include "tracing.h"
#include "workload.h"

namespace wnrs {
namespace perfbench {
namespace {

using serve::RequestKind;

/// Windows a timed phase is cut into for the robust p99s (stats.h).
constexpr size_t kWindows = 5;
/// Chunks the lo, hi, coverage and write phases are run in.
constexpr size_t kChunks = 10;
/// CarDB, shared relation.
constexpr size_t kProducts = 100000;
constexpr uint64_t kDataSeed = 20130408;
/// k of the approximated-DSL store.
constexpr size_t kApproxK = 10;
/// Engine pool and shard coordinator pool threads (= nproc of a 4-vCPU
/// host); also the threads that generate streams and check answers.
constexpr size_t kThreads = 4;
constexpr size_t kShards = 4;
/// Client connections the generator spreads its requests over.
constexpr size_t kConnections = 2;
/// Set-ups before serving; one more runs per chunk round, and `setup_s`
/// is the median of all of them.
constexpr size_t kSetupReps = 3;
/// A run whose generator sent later than this (p99, lo or hi) is invalid.
constexpr double kLateBoundMs = 20.0;
/// Rate and size of the coverage phase (kinds outside the mix).
constexpr double kCoverageQps = 40.0;
constexpr size_t kCoveragePerKind = 100;
/// Share of `--seconds` each timed phase takes. The ladder's share goes to
/// a second, traced hi phase (run whole) in traced runs.
constexpr double kLoShare = 0.25;
constexpr double kHiShare = 0.5;
constexpr double kLadderShare = 0.25;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 36.0;
  bool trace = false;
  bool prepare = false;
  std::string cache_dir;
  std::string spans_out;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "wnrs_perfbench: %s\n", message.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--prepare") {
      o.prepare = true;
      continue;
    }
    if (i + 1 >= argc) Die("flag without a value: " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
    else if (arg == "--trace") o.trace = v == "1";
    else if (arg == "--cache-dir") o.cache_dir = v;
    else if (arg == "--spans-out") o.spans_out = v;
    else Die("unknown flag: " + arg);
  }
  if (o.cache_dir.empty()) Die("--cache-dir is required");
  if (!o.prepare && o.seconds <= 0) Die("--seconds must be positive");
  return o;
}

WhyNotEngineOptions EngineOptions() {
  WhyNotEngineOptions options;
  options.num_threads = kThreads;
  return options;
}

shard::ShardedEngineOptions ShardedOptions() {
  shard::ShardedEngineOptions options;
  options.num_shards = kShards;
  options.engine = EngineOptions();
  return options;
}

std::string BundleDir(const Options& o) { return o.cache_dir + "/bundle"; }
std::string ApproxPath(const Options& o) {
  return StrFormat("%s/approx_k%zu.dsl", o.cache_dir.c_str(), kApproxK);
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Progress on stderr: what the run is doing, seconds since it began.
void Stage(const char* what) {
  static const int64_t begin = NowNs();
  std::fprintf(stderr, "wnrs_perfbench: [%6.2f s] %s\n", MsSince(begin) / 1e3,
               what);
}

/// Writes the bundle and approx store the runs open. Not timed.
int Prepare(const Options& o) {
  std::filesystem::create_directories(o.cache_dir);
  const int64_t t0 = NowNs();
  WhyNotEngine engine(GenerateCarDb(kProducts, kDataSeed), EngineOptions());
  if (Status s = engine.Save(BundleDir(o)); !s.ok()) Die(s.ToString());
  engine.PrecomputeApproxDsls(kApproxK);
  if (Status s = engine.SaveApproxDsls(ApproxPath(o)); !s.ok()) {
    Die(s.ToString());
  }
  std::fprintf(stderr, "wnrs_perfbench: prepared CarDB n=%zu in %.1f s\n",
               kProducts, MsSince(t0) / 1e3);
  return 0;
}

double CurrentRssMb() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// The served system: engine(s), backend, server. The server is declared
/// last so it stops before the engines it serves are destroyed.
struct Served {
  std::unique_ptr<WhyNotEngine> engine;
  std::unique_ptr<shard::ShardedEngine> sharded;
  std::shared_ptr<const serve::QueryBackend> backend;
  std::unique_ptr<net::WnrsServer> server;
  double open_ms = 0.0;
  double shard_build_ms = 0.0;

  void Start(std::shared_ptr<const serve::QueryBackend> served_backend) {
    server.reset();
    auto started = net::WnrsServer::Start(std::move(served_backend));
    if (!started.ok()) Die("server start: " + started.status().ToString());
    server = std::move(started).value();
  }
};

/// One set-up: bundle open, tile build (sharded), server start.
std::unique_ptr<Served> SetUp(const Options& o, const WorkloadSpec& spec) {
  auto served = std::make_unique<Served>();
  int64_t t = NowNs();
  auto opened = WhyNotEngine::Open(BundleDir(o), EngineOptions());
  if (!opened.ok()) Die("bundle open: " + opened.status().ToString());
  served->engine = std::move(opened).value();
  served->open_ms = MsSince(t);
  if (spec.sharded) {
    // As `wnrs_server --shards 4` does: the opened engine is only the
    // loader of the tiles.
    t = NowNs();
    served->sharded = std::make_unique<shard::ShardedEngine>(
        served->engine->products(), ShardedOptions());
    served->engine.reset();
    served->shard_build_ms = MsSince(t);
    served->backend =
        std::make_shared<shard::ShardedBackend>(served->sharded.get());
  } else {
    served->backend =
        std::make_shared<serve::EngineBackend>(served->engine.get());
  }
  served->Start(served->backend);
  return served;
}

/// The answer the scheduler would give, from a direct snapshot call.
serve::WhyNotResponse Answer(const serve::QuerySnapshot& snap,
                             const serve::WhyNotRequest& r) {
  serve::WhyNotResponse response;
  response.kind = r.kind;
  auto take = [&](auto&& result) {
    response.status = result.status();
    if (result.ok()) {
      response.payload = std::move(result).value();
      response.completed = true;
    }
  };
  switch (r.kind) {
    case RequestKind::kReverseSkyline: take(snap.TryReverseSkyline(r.q)); break;
    case RequestKind::kExplain: take(snap.TryExplain(r.c, r.q)); break;
    case RequestKind::kModifyWhyNot:
      take(snap.TryModifyWhyNot(r.c, r.q, r.semantics));
      break;
    case RequestKind::kModifyQuery:
      take(snap.TryModifyQuery(r.c, r.q, r.semantics));
      break;
    case RequestKind::kSafeRegion: take(snap.TrySafeRegion(r.q)); break;
    case RequestKind::kModifyBoth:
      take(snap.TryModifyBoth(r.c, r.q, r.semantics));
      break;
    case RequestKind::kModifyBothApprox:
      take(snap.TryModifyBothApprox(r.c, r.q, r.semantics));
      break;
  }
  return response;
}

/// Answer bytes with the scheduling-dependent fields zeroed.
std::string CanonicalBytes(serve::WhyNotResponse response) {
  response.queue_wait = std::chrono::microseconds(0);
  response.shared_batch = false;
  return net::EncodeResponseFrame(0, response);
}

/// Re-answers every kept OK request of `run` through `ref` and compares the
/// encoded payloads with the wire answers. Returns the mismatch count.
size_t CheckAnswers(const PhaseRun& run, const serve::QueryBackend& ref,
                    size_t* checked) {
  std::vector<size_t> todo;
  for (size_t i = 0; i < run.requests.size(); ++i) {
    if (run.keep[i] != 0 && run.outcomes[i].recv_ns != 0 &&
        run.outcomes[i].code == StatusCode::kOk) {
      todo.push_back(i);
    }
  }
  *checked += todo.size();
  const auto snap = ref.Snapshot();
  std::atomic<size_t> next{0};
  std::atomic<size_t> mismatches{0};
  auto work = [&] {
    while (true) {
      const size_t k = next.fetch_add(1);
      if (k >= todo.size()) return;
      const size_t i = todo[k];
      const serve::WhyNotResponse direct = Answer(*snap, run.requests[i]);
      if (CanonicalBytes(direct) != CanonicalBytes(run.kept[i]) &&
          mismatches.fetch_add(1) < 5) {
        std::fprintf(stderr, "wnrs_perfbench: MISMATCH %s request %zu kind %s\n",
                     run.name.c_str(), i, KindLabel(run.requests[i].kind));
      }
    }
  };
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) workers.emplace_back(work);
  for (std::thread& w : workers) w.join();
  return mismatches.load();
}

/// Metrics in print order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      double v = entries_[i].value;
      if (!std::isfinite(v)) v = 0.0;
      out += StrFormat("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                       i == 0 ? "" : ", ", entries_[i].name.c_str(), v,
                       entries_[i].unit.c_str());
    }
    return out + "}";
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-36s %14.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

PhaseRun MakePhase(const std::string& name, double rate,
                   std::vector<serve::WhyNotRequest> requests,
                   uint64_t keep_salt, uint64_t keep_mod) {
  PhaseRun run;
  run.name = name;
  run.rate_qps = rate;
  run.requests = std::move(requests);
  run.frames = EncodeFrames(run.requests);
  run.keep.assign(run.requests.size(), 0);
  for (size_t i = 0; i < run.keep.size(); ++i) {
    run.keep[i] = keep_mod != 0 && SplitMix64(keep_salt ^ (i + 1)) % keep_mod == 0;
  }
  return run;
}

void PrintTally(const PhaseRun& run) {
  const Tally t = Count(run);
  const std::vector<double> lat = OkLatenciesMs(run);
  std::printf(
      "# phase %-10s rate %7.1f qps  sent %6llu ok %6llu deadline %llu "
      "admission %llu error %llu io %llu missing %llu  p50 %.3f ms  p99 %.3f "
      "ms (n=%zu, beyond=%zu)  late p99 %.3f ms\n",
      run.name.c_str(), run.rate_qps,
      static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.ok),
      static_cast<unsigned long long>(t.deadline),
      static_cast<unsigned long long>(t.admission),
      static_cast<unsigned long long>(t.error),
      static_cast<unsigned long long>(t.io),
      static_cast<unsigned long long>(t.missing), Percentile(lat, 50),
      Percentile(lat, 99), lat.size(), SamplesBeyond(lat.size(), 99),
      Percentile(LatenessMs(run), 99));
  std::printf("#   p50/p99 by kind:");
  for (const RequestKind kind : kAllKinds) {
    const std::vector<double> k = OkLatenciesMs(run, static_cast<int>(kind));
    if (!k.empty()) {
      std::printf(" %s %.3f/%.3f", KindLabel(kind), Percentile(k, 50),
                  Percentile(k, 99));
    }
  }
  std::printf(" ms\n");
}

/// p50 of a log2-bucketed histogram delta (bucket upper bound, us).
double HistogramP50(const HistogramSnapshot& before,
                    const HistogramSnapshot& after) {
  uint64_t counts[kHistogramBuckets];
  uint64_t total = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    counts[b] = after.buckets[b] - before.buckets[b];
    total += counts[b];
  }
  if (total == 0) return 0.0;
  uint64_t seen = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += counts[b];
    if (2 * seen >= total) {
      return static_cast<double>(HistogramSnapshot::BucketUpperBound(b));
    }
  }
  return 0.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Per-layer numbers from spans of one traced phase.
struct SpanStats {
  std::map<int, std::vector<double>> self_us;  // by span kind
  std::vector<double> overhead_us;
  double busy_frac = 0.0;
  double concurrency = 0.0;
};

SpanStats AnalyzeSpans(const PhaseRun& run, const std::vector<BackendSpan>& spans) {
  SpanStats out;
  std::vector<Interval> all;
  int64_t sum = 0;
  // (kind, q key, customer) -> spans answering that request.
  std::map<std::tuple<int, uint64_t, size_t>, std::vector<const BackendSpan*>> index;
  for (const BackendSpan& span : spans) {
    out.self_us[span.kind].push_back(
        static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    all.push_back({span.start_ns, span.end_ns});
    sum += span.end_ns - span.start_ns;
    int kind = span.kind;
    if (kind == kSpanBatchExact) kind = static_cast<int>(RequestKind::kModifyBoth);
    if (kind == kSpanBatchApprox) {
      kind = static_cast<int>(RequestKind::kModifyBothApprox);
    }
    if (span.whos.empty()) {
      index[{kind, span.q_key, 0}].push_back(&span);
    }
    for (const size_t c : span.whos) index[{kind, span.q_key, c}].push_back(&span);
  }
  const int64_t covered = UnionLength(all);
  out.busy_frac = Ratio(static_cast<double>(covered),
                        static_cast<double>(run.elapsed_ns));
  out.concurrency = Ratio(static_cast<double>(sum), static_cast<double>(covered));
  for (size_t i = 0; i < run.requests.size(); ++i) {
    const Outcome& o = run.outcomes[i];
    if (o.recv_ns == 0 || o.code != StatusCode::kOk) continue;
    const serve::WhyNotRequest& r = run.requests[i];
    const bool uses_c = r.kind != RequestKind::kReverseSkyline &&
                        r.kind != RequestKind::kSafeRegion;
    auto it = index.find({static_cast<int>(r.kind), PointKey(r.q), uses_c ? r.c : 0});
    if (it == index.end()) continue;
    for (const BackendSpan* span : it->second) {
      if (span->start_ns < o.send_ns || span->end_ns > o.recv_ns) continue;
      const int64_t wait_ns = int64_t{o.queue_wait_us} * 1000;
      const int64_t self = SelfTime(
          {o.send_ns, o.recv_ns},
          {{span->start_ns - wait_ns, span->start_ns},
           {span->start_ns, span->end_ns}});
      out.overhead_us.push_back(static_cast<double>(self) / 1e3);
      break;
    }
  }
  return out;
}

int Run(const Options& o) {
  WorkloadSpec spec;
  if (!FindWorkload(o.workload, &spec)) Die("unknown workload " + o.workload);
  const std::vector<RequestKind> coverage_kinds = CoverageKinds(spec);
  const bool approx_in_run =
      std::find(coverage_kinds.begin(), coverage_kinds.end(),
                RequestKind::kModifyBothApprox) != coverage_kinds.end();
  MetricsRegistry& registry = MetricsRegistry::Default();

  // ---- Set-up, repeated; the last one is served. More set-ups run between
  // the read chunks below, so `setup_s` samples the host over the run. -----
  Stage("set-up");
  std::vector<double> setup_s, open_ms, build_ms;
  auto timed_setup = [&] {
    const int64_t t0 = NowNs();
    std::unique_ptr<Served> s = SetUp(o, spec);
    setup_s.push_back(MsSince(t0) / 1e3);
    open_ms.push_back(s->open_ms);
    build_ms.push_back(s->shard_build_ms);
    return s;
  };
  std::unique_ptr<Served> served;
  const QueryStats storage_before = registry.CaptureQueryStats();
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    served.reset();
    served = timed_setup();
  }
  const QueryStats storage_delta = registry.CaptureQueryStats() - storage_before;
  const double rss_mb = CurrentRssMb();

  // ---- The engine the writes mutate: a third instance, of the served kind,
  // so writes can run between read chunks without touching the served
  // answers or the approx store the coverage kind needs. ------------------
  auto write_opened = WhyNotEngine::Open(BundleDir(o), EngineOptions());
  if (!write_opened.ok()) Die("bundle open: " + write_opened.status().ToString());
  std::unique_ptr<WhyNotEngine> write_engine = std::move(write_opened).value();
  std::unique_ptr<shard::ShardedEngine> write_sharded;
  if (spec.sharded) {
    write_sharded = std::make_unique<shard::ShardedEngine>(write_engine->products(),
                                                           ShardedOptions());
    write_engine.reset();
  }
  std::vector<double> add_ms, remove_ms;
  uint64_t write_attempted = 0, write_failed = 0;
  uint64_t freeze_ns = 0, freezes = 0;
  // One add/remove pair per point: the market is back to its start state
  // after each pair.
  auto write_pairs = [&](const std::vector<Point>& points, bool timed) {
    const QueryStats before = registry.CaptureQueryStats();
    for (const Point& p : points) {
      int64_t t = NowNs();
      Result<size_t> id = spec.sharded ? write_sharded->TryAddProduct(p)
                                       : write_engine->TryAddProduct(p);
      const double add = MsSince(t);
      if (!timed) {
        if (!id.ok()) Die("warm-up write: " + id.status().ToString());
      } else {
        add_ms.push_back(add);
        write_attempted += 2;
      }
      if (!id.ok()) {
        write_failed += 2;
        continue;
      }
      t = NowNs();
      const Status removed = spec.sharded ? write_sharded->TryRemoveProduct(id.value())
                                          : write_engine->TryRemoveProduct(id.value());
      const double remove = MsSince(t);
      if (!timed) {
        if (!removed.ok()) Die("warm-up write: " + removed.ToString());
        continue;
      }
      remove_ms.push_back(remove);
      if (!removed.ok()) ++write_failed;
    }
    if (timed) {
      const QueryStats d = registry.CaptureQueryStats() - before;
      freeze_ns += d.packed_freeze_ns;
      freezes += d.packed_freezes;
    }
  };

  // ---- The generator's own engine: streams and reference answers. --------
  Stage("streams");
  auto gen_opened = WhyNotEngine::Open(BundleDir(o), EngineOptions());
  if (!gen_opened.ok()) Die("bundle open: " + gen_opened.status().ToString());
  std::unique_ptr<WhyNotEngine> gen_engine = std::move(gen_opened).value();
  double approx_load_ms = 0.0;
  if (approx_in_run) {
    const int64_t t = NowNs();
    if (Status s = gen_engine->LoadApproxDsls(ApproxPath(o)); !s.ok()) {
      Die("approx load: " + s.ToString());
    }
    approx_load_ms = MsSince(t);
  }
  StreamGenerator gen(o.seed, gen_engine.get(), kThreads);
  // Every answer is checked against this independent single engine; the
  // sharded engine is held bit-identical to it.
  const auto gen_backend =
      std::make_shared<serve::EngineBackend>(gen_engine.get());

  const double lo_s = kLoShare * o.seconds;
  const double hi_s = kHiShare * o.seconds;
  const size_t probes = static_cast<size_t>(
      std::ceil(std::log2(static_cast<double>(spec.ladder_qps.size()) + 1.0)));
  const double rung_s =
      kLadderShare * o.seconds / static_cast<double>(std::max<size_t>(1, probes));
  auto count_for = [](double rate, double secs) {
    return std::max<size_t>(1, static_cast<size_t>(std::llround(rate * secs)));
  };

  PhaseRun warm = MakePhase(
      "warmup", spec.lo_qps,
      gen.Make(kPhaseWarmup, count_for(spec.lo_qps, 0.5), spec.mix), 0, 0);
  PhaseRun lo = MakePhase("lo", spec.lo_qps,
                          gen.Make(kPhaseLo, count_for(spec.lo_qps, lo_s), spec.mix),
                          SplitMix64(o.seed ^ kPhaseLo), 4);
  PhaseRun hi = MakePhase("hi", spec.hi_qps,
                          gen.Make(kPhaseHi, count_for(spec.hi_qps, hi_s), spec.mix),
                          SplitMix64(o.seed ^ kPhaseHi), 4);
  Mix coverage_mix;
  coverage_mix.slow = coverage_kinds;
  std::vector<serve::WhyNotRequest> coverage_requests;
  if (!coverage_kinds.empty()) {
    coverage_requests = gen.Make(
        kPhaseCoverage, kCoveragePerKind * coverage_kinds.size(), coverage_mix);
  }
  PhaseRun coverage = MakePhase("coverage", kCoverageQps, coverage_requests, 0, 1);
  std::vector<Point> write_points = gen.WritePoints(spec.write_pairs + 2);
  uint64_t digest = Fnv1a("");
  for (const PhaseRun* run : {&lo, &hi, &coverage}) {
    for (const std::string& frame : run->frames) digest = Fnv1a(frame, digest);
  }

  std::printf(
      "# host nproc=%u kernel=%s build=%s n=%zu threads=%zu workload=%s "
      "seed=%llu lo=%.1fqps hi=%.1fqps p99_limit=%.1fms timeout=%lldms "
      "ladder=",
      std::thread::hardware_concurrency(), KernelBackend(), PERFBENCH_BUILD_TYPE,
      kProducts, kThreads, o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), spec.lo_qps, spec.hi_qps,
      spec.p99_limit_ms, static_cast<long long>(kRequestTimeout.count()));
  for (size_t i = 0; i < spec.ladder_qps.size(); ++i) {
    std::printf("%s%.0f", i == 0 ? "" : ",", spec.ladder_qps[i]);
  }
  std::printf(" trace=%d\n# stream digest %016llx (lo %zu, hi %zu, coverage %zu "
              "requests)\n",
              o.trace ? 1 : 0, static_cast<unsigned long long>(digest),
              lo.requests.size(), hi.requests.size(), coverage.requests.size());

  // The approx store the coverage kind needs, before serving (not timed).
  if (approx_in_run) {
    if (spec.sharded) {
      served->sharded->PrecomputeApproxDsls(kApproxK);
    } else if (Status st = served->engine->LoadApproxDsls(ApproxPath(o)); !st.ok()) {
      Die("approx load: " + st.ToString());
    }
  }

  // ---- Timed phases: lo, hi and coverage in alternating chunks, between
  // the ladder's probes, so every metric samples the host over the whole
  // run rather than over one slice of it. ----------------------------------
  Stage("serving");
  const uint16_t port = served->server->port();
  RunOpenLoop(port, kConnections, &warm);
  // Two untimed pairs first: the first write of a process pays one-time
  // allocation and page-fault costs that would otherwise be the p99.
  write_pairs({write_points[0], write_points[1]}, false);
  write_points.erase(write_points.begin(), write_points.begin() + 2);
  size_t next_chunk = 0;
  auto run_chunks = [&](size_t count) {
    for (size_t c = 0; c < count && next_chunk < kChunks; ++c, ++next_chunk) {
      const size_t k = next_chunk;
      for (PhaseRun* run : {&lo, &hi, &coverage}) {
        const size_t n = run->requests.size();
        RunOpenLoop(port, kConnections, run, n * k / kChunks, n * (k + 1) / kChunks);
      }
      const size_t n = write_points.size();
      write_pairs(std::vector<Point>(write_points.begin() + n * k / kChunks,
                                     write_points.begin() + n * (k + 1) / kChunks),
                  true);
      timed_setup();  // discarded at once; the served set-up stays
    }
  };
  double max_qps = 0.0;
  uint64_t ladder_sent = 0;
  if (!o.trace) {
    const size_t per_probe = (kChunks + probes - 1) / std::max<size_t>(1, probes);
    const int best = WalkLadder(spec.ladder_qps.size(), [&](size_t rung) {
      run_chunks(per_probe);
      const double rate = spec.ladder_qps[rung];
      PhaseRun run = MakePhase(
          StrFormat("rung%zu", rung), rate,
          gen.Make(kPhaseLadder + rung, count_for(rate, rung_s), spec.mix), 0, 0);
      // A marginal failure gets one retry, so a host stall during one probe
      // does not send the search down the wrong half. A clear overload
      // does not: retrying it would only spend the run's time.
      for (int attempt = 0; attempt < 2; ++attempt) {
        RunOpenLoop(port, kConnections, &run);
        PrintTally(run);
        const Tally t = Count(run);
        ladder_sent += t.attempted;
        const std::vector<double> lat = OkLatenciesMs(run);
        const double fail = Ratio(static_cast<double>(t.failed()),
                                  static_cast<double>(t.attempted));
        const double p99 = Percentile(lat, 99);
        const bool backlog = GrowingBacklog(lat, 0.1 * spec.p99_limit_ms);
        const bool pass = fail <= 0.01 && !backlog && p99 <= spec.p99_limit_ms;
        const bool marginal = fail <= 0.05 && p99 <= 2.0 * spec.p99_limit_ms;
        std::printf("# rung %zu %.0f qps: %s (fail %.4f, backlog %d)\n", rung,
                    rate, pass ? "pass" : "fail", fail, backlog ? 1 : 0);
        if (pass) return true;
        if (!marginal) return false;
      }
      return false;
    });
    max_qps = best >= 0 ? spec.ladder_qps[static_cast<size_t>(best)] : 0.0;
  }
  run_chunks(kChunks);
  PrintTally(lo);
  PrintTally(hi);
  PrintTally(coverage);

  // ---- Traced hi and coverage phases: same streams, each run whole, with
  // the backend wrapped in TracingBackend. ---------------------------------
  Stage("traced");
  auto span_log = std::make_shared<SpanLog>();
  PhaseRun hi_traced, coverage_traced;
  QueryStats traced_delta;
  HistogramSnapshot pool_before, pool_after;
  std::vector<int64_t> traced_dispatches;
  std::vector<BackendSpan> all_spans;
  SpanStats traced;
  if (o.trace) {
    served->Start(std::make_shared<TracingBackend>(served->backend, span_log));
    hi_traced = hi;
    hi_traced.name = "hi-traced";
    const QueryStats before = registry.CaptureQueryStats();
    pool_before = registry.HistogramValue(HistogramId::kPoolQueueWaitMicros);
    RunOpenLoop(served->server->port(), kConnections, &hi_traced);
    pool_after = registry.HistogramValue(HistogramId::kPoolQueueWaitMicros);
    traced_delta = registry.CaptureQueryStats() - before;
    PrintTally(hi_traced);
    traced_dispatches = span_log->TakeDispatches();
    all_spans = span_log->TakeSpans();
    traced = AnalyzeSpans(hi_traced, all_spans);
    coverage_traced = coverage;
    coverage_traced.name = "cov-traced";
    RunOpenLoop(served->server->port(), kConnections, &coverage_traced);
    PrintTally(coverage_traced);
    span_log->TakeDispatches();
    for (BackendSpan& sp : span_log->TakeSpans()) all_spans.push_back(std::move(sp));
  }

  // ---- Answer check. -------------------------------------------------------
  Stage("answer check");
  size_t mismatches = 0;
  size_t checked = 0;
  for (const PhaseRun* run : {&lo, &hi, &coverage, &hi_traced, &coverage_traced}) {
    mismatches += CheckAnswers(*run, *gen_backend, &checked);
  }

  // Direct call times through the served ShardedSnapshot and the single
  // engine, on the same requests (traced sharded runs only). Taken before
  // the writes, which drop the approx store.
  std::map<int, std::vector<double>> sharded_us;
  double sharded_sum = 0.0, single_sum = 0.0;
  if (o.trace && spec.sharded) {
    const auto single = gen_backend->Snapshot();
    const auto sharded = served->backend->Snapshot();
    std::map<int, size_t> taken;
    for (const PhaseRun* run : {&hi, &coverage}) {
      for (size_t i = 0; i < run->requests.size(); ++i) {
        const int kind = static_cast<int>(run->requests[i].kind);
        if (run->keep[i] == 0 || taken[kind] >= 30) continue;
        ++taken[kind];
        int64_t t = NowNs();
        (void)Answer(*sharded, run->requests[i]);
        const int64_t sharded_ns = NowNs() - t;
        sharded_us[kind].push_back(static_cast<double>(sharded_ns) / 1e3);
        sharded_sum += static_cast<double>(sharded_ns);
        t = NowNs();
        (void)Answer(*single, run->requests[i]);
        single_sum += static_cast<double>(NowNs() - t);
      }
    }
  }

  const double freeze_ms =
      Ratio(static_cast<double>(freeze_ns) / 1e6, static_cast<double>(freezes));

  // ---- Server-side counters, then stop serving. --------------------------
  const net::ServerStats server_stats = served->server->stats();
  const serve::SchedulerStats sched_stats = served->server->scheduler().stats();
  served->server->Stop();

  // ---- Accounting. ----------------------------------------------------------
  Stage("metrics");
  Tally total;
  for (const PhaseRun* run : {&lo, &hi, &coverage, &hi_traced, &coverage_traced}) {
    const Tally t = Count(*run);
    total.attempted += t.attempted;
    total.ok += t.ok;
  }
  const uint64_t attempted = total.attempted + write_attempted;
  const uint64_t failed = total.failed() + write_failed;
  std::printf("# checked %zu answers, %zu mismatches; writes %llu (%llu failed); "
              "ladder requests %llu (overload rungs, not counted)\n",
              checked, mismatches, static_cast<unsigned long long>(write_attempted),
              static_cast<unsigned long long>(write_failed),
              static_cast<unsigned long long>(ladder_sent));

  // A generator that sent late measured itself, not the server.
  for (const PhaseRun* run : {&lo, &hi}) {
    const double late = Percentile(LatenessMs(*run), 99);
    if (late > kLateBoundMs) {
      std::fprintf(stderr,
                   "wnrs_perfbench: INVALID run: generator late p99 %.2f ms in "
                   "phase %s exceeds %.1f ms\n",
                   late, run->name.c_str(), kLateBoundMs);
      return 3;
    }
  }

  const bool correct = mismatches == 0 && server_stats.decode_errors == 0;
  MetricSet m;
  auto kind_p50 = [&](RequestKind kind) {
    return Percentile(OkLatenciesMs(spec.mix.Contains(kind) ? hi : coverage,
                                    static_cast<int>(kind)),
                      50);
  };
  const std::vector<double> hi_lat = OkLatenciesMs(hi);
  if (!o.trace) {
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("rss_mb", rss_mb, "MB");
    m.Add("lo.p50_ms", Percentile(OkLatenciesMs(lo), 50), "ms");
    m.Add("hi.p50_ms", Percentile(hi_lat, 50), "ms");
    m.Add("hi.p99_ms", TrimmedPercentile(hi_lat, kWindows, 99), "ms");
    const Tally hi_t = Count(hi);
    m.Add("hi.goodput_qps",
          Ratio(static_cast<double>(hi_t.ok),
                static_cast<double>(hi.elapsed_ns) / 1e9),
          "1/s");
    m.Add("max_qps", max_qps, "1/s");
    // Add-one estimate, so a clean run reads 1/(attempted+1), never 0.
    m.Add("fail_frac",
          static_cast<double>(failed + 1) / static_cast<double>(attempted + 1),
          "frac");
    m.Add("hi.rsl.p50_ms", kind_p50(RequestKind::kReverseSkyline), "ms");
    m.Add("hi.explain.p50_ms", kind_p50(RequestKind::kExplain), "ms");
    m.Add("hi.mwp.p50_ms", kind_p50(RequestKind::kModifyWhyNot), "ms");
    m.Add("hi.sr.p50_ms", kind_p50(RequestKind::kSafeRegion), "ms");
    m.Add("hi.mwq.p50_ms", kind_p50(RequestKind::kModifyBoth), "ms");
    m.Add("hi.mwq_approx.p50_ms", kind_p50(RequestKind::kModifyBothApprox), "ms");
    // write.* time AddProduct. Adds and removes have separate cost modes
    // (about 3:1 on 4 tiles), and in an even mix a pooled median falls in
    // the gap between them, where it is an extreme order statistic.
    m.Add("write.p50_ms", Percentile(add_ms, 50), "ms");
    m.Add("write.p99_ms", TrimmedPercentile(add_ms, kWindows, 99), "ms");
    const size_t pooled = TrimmedCount(hi_lat.size(), kWindows);
    std::printf("# hi.p99_ms from %zu samples (slowest of %zu windows dropped), "
                "%zu beyond it\n",
                pooled, kWindows, SamplesBeyond(pooled, 99));
    // Ten samples beyond a p99 take 1000 adds, more than a minute of a
    // single engine's writes; the run times far fewer and says so.
    const size_t write_pooled = TrimmedCount(add_ms.size(), kWindows);
    const size_t write_beyond = SamplesBeyond(write_pooled, 99);
    std::printf("# writes: add p50/p99 %.3f/%.3f ms, remove p50/p99 %.3f/%.3f ms\n",
                Percentile(add_ms, 50), Percentile(add_ms, 99),
                Percentile(remove_ms, 50), Percentile(remove_ms, 99));
    std::printf("# write.p99_ms from %zu adds, %zu beyond it%s\n", write_pooled,
                write_beyond,
                write_beyond < 10 ? ": FEWER THAN 10, a high order statistic "
                                    "rather than a p99"
                                  : "");
  } else {
    const double hi_req = static_cast<double>(hi_traced.requests.size());
    // net
    std::vector<double> decode_us, encode_us;
    for (int rep = 0; rep < 5; ++rep) {
      int64_t t = NowNs();
      size_t ok = 0;
      for (const std::string& frame : hi_traced.frames) {
        ok += net::DecodeRequestPayload(
                  std::string_view(frame).substr(net::kFrameHeaderSize))
                  .ok();
      }
      decode_us.push_back(static_cast<double>(NowNs() - t) / 1e3 /
                          static_cast<double>(std::max<size_t>(1, ok)));
      t = NowNs();
      size_t encoded = 0;
      size_t bytes = 0;
      for (size_t i = 0; i < hi_traced.kept.size(); ++i) {
        if (hi_traced.keep[i] == 0 || hi_traced.outcomes[i].recv_ns == 0) continue;
        bytes += net::EncodeResponseFrame(i + 1, hi_traced.kept[i]).size();
        ++encoded;
      }
      encode_us.push_back(static_cast<double>(NowNs() - t) / 1e3 /
                          static_cast<double>(std::max<size_t>(1, encoded)));
      if (bytes == 0 && encoded > 0) Die("empty response encoding");
    }
    double resp_bytes = 0.0;
    size_t received = 0;
    for (const Outcome& out : hi_traced.outcomes) {
      if (out.recv_ns == 0) continue;
      resp_bytes += out.frame_bytes;
      ++received;
    }
    m.Add("net.req_decode_us", Median(decode_us), "us");
    m.Add("net.resp_encode_us", Median(encode_us), "us");
    m.Add("net.resp_bytes", Ratio(resp_bytes, static_cast<double>(received)), "bytes");
    m.Add("net.overhead_us", Percentile(traced.overhead_us, 50), "us");
    m.Add("net.decode_errors", static_cast<double>(server_stats.decode_errors), "count");
    // serve
    std::vector<double> waits;
    size_t shared = 0;
    for (const Outcome& out : hi_traced.outcomes) {
      if (out.recv_ns == 0) continue;
      waits.push_back(out.queue_wait_us);
      shared += out.shared_batch ? 1 : 0;
    }
    m.Add("serve.queue_wait_p50_us", Percentile(waits, 50), "us");
    m.Add("serve.queue_wait_p99_us", Percentile(waits, 99), "us");
    m.Add("serve.backend_busy_frac", traced.busy_frac, "frac");
    m.Add("serve.backend_concurrency_mean", traced.concurrency, "x");
    m.Add("serve.batch_share_frac",
          Ratio(static_cast<double>(shared), static_cast<double>(received)), "frac");
    m.Add("serve.batch_size_mean",
          Ratio(hi_req, static_cast<double>(traced_dispatches.size())), "requests");
    m.Add("serve.admission_rejects", static_cast<double>(sched_stats.admission_rejects),
          "count");
    m.Add("serve.deadline_misses", static_cast<double>(sched_stats.deadline_misses),
          "count");
    // core: backend self time per kind, over the traced hi and coverage spans.
    SpanStats all = AnalyzeSpans(hi_traced, all_spans);
    for (const RequestKind kind : kAllKinds) {
      m.Add(StrFormat("core.%s.us", KindLabel(kind)),
            Percentile(all.self_us[static_cast<int>(kind)], 50), "us");
    }
    {
      std::vector<double> batch = all.self_us[kSpanBatchExact];
      const auto& approx_batch = all.self_us[kSpanBatchApprox];
      batch.insert(batch.end(), approx_batch.begin(), approx_batch.end());
      m.Add("core.mwq_batch.us", Percentile(batch, 50), "us");
    }
    const QueryStats& d = traced_delta;
    m.Add("core.rsl_cache_hit_frac",
          Ratio(static_cast<double>(d.rsl_cache_hits),
                static_cast<double>(d.rsl_cache_hits + d.rsl_cache_misses)),
          "frac");
    m.Add("core.sr_computed_per_req",
          Ratio(static_cast<double>(d.safe_regions_computed), hi_req), "count");
    m.Add("core.sr_rects_per_region",
          Ratio(static_cast<double>(d.safe_region_rects),
                static_cast<double>(d.safe_regions_computed)),
          "count");
    m.Add("core.candidates_examined_frac",
          Ratio(static_cast<double>(d.candidates_examined),
                static_cast<double>(d.candidates_generated)),
          "frac");
    // reverse_skyline / skyline: engine phases, timed on a fresh engine
    // through the public probes, one call at a time.
    auto probe_opened = WhyNotEngine::Open(BundleDir(o), EngineOptions());
    if (!probe_opened.ok()) Die("bundle open: " + probe_opened.status().ToString());
    const EngineSnapshot probe = probe_opened.value()->Snapshot();
    // Per-kind node reads first, while the probe engine's caches are cold.
    std::map<int, std::pair<double, double>> reads;  // kind -> (sum, calls)
    {
      std::vector<const serve::WhyNotRequest*> sample;
      std::map<int, size_t> taken;
      for (const PhaseRun* run : {&hi, &coverage}) {
        for (const serve::WhyNotRequest& r : run->requests) {
          const int k = static_cast<int>(r.kind);
          if (taken[k] < 6) {
            ++taken[k];
            sample.push_back(&r);
          }
        }
      }
      if (approx_in_run) {
        if (Status st = probe_opened.value()->LoadApproxDsls(ApproxPath(o)); !st.ok()) {
          Die("approx load: " + st.ToString());
        }
      }
      const serve::EngineBackend probe_backend(probe_opened.value().get());
      const auto snap = probe_backend.Snapshot();
      for (const serve::WhyNotRequest* r : sample) {
        const QueryStats before = registry.CaptureQueryStats();
        (void)Answer(*snap, *r);
        const QueryStats dd = registry.CaptureQueryStats() - before;
        auto& entry = reads[static_cast<int>(r->kind)];
        entry.first += static_cast<double>(dd.rtree_node_reads);
        entry.second += 1.0;
      }
    }
    std::vector<Point> qs;
    for (const serve::WhyNotRequest& r : hi.requests) {
      if (qs.size() >= 24) break;
      if (std::find(qs.begin(), qs.end(), r.q) == qs.end()) qs.push_back(r.q);
    }
    const EngineSnapshot probe_snap = probe_opened.value()->Snapshot();
    std::vector<double> candgen_us, verify_us, dsl_us;
    double candidates = 0, members = 0, dom_tests = 0;
    for (const Point& q : qs) {
      const QueryStats before = registry.CaptureQueryStats();
      int64_t t = NowNs();
      const std::vector<RStarTree::Id> cands =
          probe_snap.ProbeGlobalSkylineCandidates(q, std::nullopt);
      candgen_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
      dom_tests += static_cast<double>(
          (registry.CaptureQueryStats() - before).bbrs_dominance_tests);
      candidates += static_cast<double>(cands.size());
      std::vector<RStarTree::Id> member_ids;
      t = NowNs();
      for (const RStarTree::Id id : cands) {
        const Point& c = probe_snap.customers().points[id];
        if (probe_snap.ProbeWindowEmpty(c, q, id)) member_ids.push_back(id);
      }
      verify_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
      members += static_cast<double>(member_ids.size());
      for (size_t k = 0; k < member_ids.size() && k < 16; ++k) {
        const RStarTree::Id id = member_ids[k];
        t = NowNs();
        (void)probe_snap.ProbeDynamicSkyline(probe_snap.customers().points[id], id);
        dsl_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
      }
    }
    const double nq = static_cast<double>(std::max<size_t>(1, qs.size()));
    m.Add("bbrs.candgen_us", Median(candgen_us), "us");
    m.Add("bbrs.verify_us", Median(verify_us), "us");
    m.Add("bbrs.candidates_per_q", candidates / nq, "count");
    m.Add("bbrs.members_per_candidate", Ratio(members, candidates), "frac");
    m.Add("bbrs.dominance_tests_per_q", dom_tests / nq, "count");
    m.Add("dsl.us_per_member", Median(dsl_us), "us");
    m.Add("window.probes_per_req", Ratio(static_cast<double>(d.window_probes), hi_req),
          "count");
    m.Add("window.dominance_tests_per_req",
          Ratio(static_cast<double>(d.window_dominance_tests), hi_req), "count");
    // index / geometry
    for (const RequestKind kind : kAllKinds) {
      const auto& entry = reads[static_cast<int>(kind)];
      m.Add(StrFormat("index.node_reads_per_req.%s", KindLabel(kind)),
            Ratio(entry.first, entry.second), "count");
    }
    m.Add("kernel.dominance_tests_per_req",
          Ratio(static_cast<double>(d.bbrs_dominance_tests + d.window_dominance_tests),
                hi_req),
          "count");
    m.Add("index.freeze_ms", freeze_ms, "ms");
    m.Add("index.cow_ms", std::max(0.0, Percentile(add_ms, 50) - freeze_ms), "ms");
    // shard: direct ShardedSnapshot call times, and their ratio to the
    // generator's single engine on the same requests.
    for (const RequestKind kind : kAllKinds) {
      m.Add(StrFormat("shard.%s.us", KindLabel(kind)),
            Percentile(sharded_us[static_cast<int>(kind)], 50), "us");
    }
    m.Add("shard.overhead_frac", Ratio(sharded_sum, single_sum), "x");
    m.Add("pool.queue_wait_p50_us", HistogramP50(pool_before, pool_after), "us");
    m.Add("pool.tasks_per_req",
          Ratio(static_cast<double>(d.pool_tasks_executed), hi_req), "count");
    // storage
    m.Add("storage.open_ms", Median(open_ms), "ms");
    m.Add("storage.approx_load_ms", approx_load_ms, "ms");
    m.Add("shard.build_ms", Median(build_ms), "ms");
    m.Add("storage.cache_hit_frac",
          Ratio(static_cast<double>(storage_delta.storage_cache_hits),
                static_cast<double>(storage_delta.storage_cache_hits +
                                    storage_delta.storage_cache_misses)),
          "frac");
    m.Add("storage.bundle_bytes_per_product",
          Ratio(static_cast<double>(DirBytes(BundleDir(o))),
                static_cast<double>(kProducts)),
          "bytes");
    // tracing
    m.Add("trace.overhead_frac",
          Ratio(Percentile(OkLatenciesMs(hi_traced), 50), Percentile(hi_lat, 50)), "x");
    m.Add("gen.late_p99_ms", Percentile(LatenessMs(hi_traced), 99), "ms");
    if (!o.spans_out.empty() && !WriteSpans(o.spans_out, all_spans)) {
      std::fprintf(stderr, "wnrs_perfbench: cannot write %s\n", o.spans_out.c_str());
    }
  }
  m.Print();
  if (!correct) {
    std::fprintf(stderr, "wnrs_perfbench: answer check FAILED (%zu mismatches)\n",
                 mismatches);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace wnrs

int main(int argc, char** argv) {
  using namespace wnrs::perfbench;
  const Options options = ParseArgs(argc, argv);
  if (options.prepare) return Prepare(options);
  return Run(options);
}
