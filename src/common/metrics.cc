#include "common/metrics.h"

#include <bit>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/string_util.h"

namespace wnrs {

namespace {

size_t Index(CounterId id) { return static_cast<size_t>(id); }
size_t Index(GaugeId id) { return static_cast<size_t>(id); }
size_t Index(HistogramId id) { return static_cast<size_t>(id); }

/// Bucket i holds values in (2^(i-1), 2^i]; bucket 0 holds [0, 1]; the
/// last bucket absorbs the tail.
size_t BucketFor(uint64_t value) {
  if (value <= 1) return 0;
  const size_t i = static_cast<size_t>(std::bit_width(value - 1));
  return i < kHistogramBuckets ? i : kHistogramBuckets - 1;
}

/// Relaxed add on a cell only the calling thread writes: a plain
/// load/store pair, so the hot path never issues a read-modify-write.
void CellAdd(std::atomic<uint64_t>& cell, uint64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

void AtomicMin(std::atomic<uint64_t>& cell, uint64_t value) {
  uint64_t cur = cell.load(std::memory_order_relaxed);
  while (value < cur &&
         !cell.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>& cell, uint64_t value) {
  uint64_t cur = cell.load(std::memory_order_relaxed);
  while (value > cur &&
         !cell.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

/// One thread's private cells. Only the owning thread writes; readers
/// merge with relaxed loads (metrics tolerate slightly stale sums).
struct MetricsRegistry::Shard {
  std::atomic<uint64_t> counters[kNumCounters] = {};
  std::atomic<uint64_t> hist_count[kNumHistograms] = {};
  std::atomic<uint64_t> hist_sum[kNumHistograms] = {};
  std::atomic<uint64_t> hist_buckets[kNumHistograms][kHistogramBuckets] = {};

  void MergeInto(Shard* into) const {
    for (size_t i = 0; i < kNumCounters; ++i) {
      CellAdd(into->counters[i], counters[i].load(std::memory_order_relaxed));
    }
    for (size_t h = 0; h < kNumHistograms; ++h) {
      CellAdd(into->hist_count[h],
              hist_count[h].load(std::memory_order_relaxed));
      CellAdd(into->hist_sum[h],
              hist_sum[h].load(std::memory_order_relaxed));
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        CellAdd(into->hist_buckets[h][b],
                hist_buckets[h][b].load(std::memory_order_relaxed));
      }
    }
  }

  void Zero() {
    for (size_t i = 0; i < kNumCounters; ++i) {
      counters[i].store(0, std::memory_order_relaxed);
    }
    for (size_t h = 0; h < kNumHistograms; ++h) {
      hist_count[h].store(0, std::memory_order_relaxed);
      hist_sum[h].store(0, std::memory_order_relaxed);
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        hist_buckets[h][b].store(0, std::memory_order_relaxed);
      }
    }
  }
};

struct MetricsRegistry::Impl {
  /// Guards `shards` and `retired`; never taken by Add/Record.
  mutable Mutex mu;
  std::vector<Shard*> shards WNRS_GUARDED_BY(mu);
  /// Folded totals of threads that have exited. The Shard itself is all
  /// atomics; mu only guards its membership in the fold set (merging a
  /// retiring thread's cells into it races with readers otherwise).
  Shard retired WNRS_GUARDED_BY(mu);
  std::atomic<int64_t> gauges[kNumGauges] = {};
  std::atomic<uint64_t> hist_min[kNumHistograms];
  std::atomic<uint64_t> hist_max[kNumHistograms] = {};

  Impl() {
    for (size_t h = 0; h < kNumHistograms; ++h) {
      hist_min[h].store(UINT64_MAX, std::memory_order_relaxed);
    }
  }
};

namespace {

/// Thread-local shard directory: which shard this thread owns in each
/// registry it has reported into. On thread exit the destructor folds
/// every shard back into its registry. Registries other than the (leaked)
/// default must therefore outlive all threads that reported into them.
struct ShardDirectory {
  static constexpr size_t kMaxRegistries = 16;
  struct Entry {
    MetricsRegistry* registry = nullptr;
    void* shard = nullptr;  // MetricsRegistry::Shard*, opaque here.
  };
  Entry entries[kMaxRegistries];
  size_t count = 0;

  ~ShardDirectory();
};

thread_local ShardDirectory tls_shard_directory;

}  // namespace

/// Named, non-local friend hook so ShardDirectory's destructor can reach
/// the private Unregister.
struct ShardHandle {
  static void Release(MetricsRegistry* registry, void* shard) {
    registry->Unregister(static_cast<MetricsRegistry::Shard*>(shard));
  }
};

namespace {
ShardDirectory::~ShardDirectory() {
  for (size_t i = 0; i < count; ++i) {
    ShardHandle::Release(entries[i].registry, entries[i].shard);
  }
  count = 0;
}
}  // namespace

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked: worker threads may flush shards during process teardown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::MetricsRegistry() : impl_(new Impl()) {}

MetricsRegistry::~MetricsRegistry() {
  // Drop the destroying thread's own directory entry first: without this,
  // its exit-time fold (and any later same-address registry lookup) would
  // dereference this dead registry. Entries owned by *other* threads are
  // unreachable from here — hence the documented requirement that any
  // non-default registry outlive every other thread that reported into it.
  ShardDirectory& dir = tls_shard_directory;
  for (size_t i = 0; i < dir.count;) {
    if (dir.entries[i].registry == this) {
      dir.entries[i] = dir.entries[dir.count - 1];
      dir.entries[dir.count - 1] = {};
      --dir.count;
    } else {
      ++i;
    }
  }
  {
    MutexLock lock(impl_->mu);
    for (Shard* shard : impl_->shards) delete shard;
    impl_->shards.clear();
  }
  delete impl_;
}

MetricsRegistry::Shard* MetricsRegistry::LocalShard() {
  ShardDirectory& dir = tls_shard_directory;
  for (size_t i = 0; i < dir.count; ++i) {
    if (dir.entries[i].registry == this) {
      return static_cast<Shard*>(dir.entries[i].shard);
    }
  }
  Shard* shard = new Shard();
  {
    MutexLock lock(impl_->mu);
    if (dir.count >= ShardDirectory::kMaxRegistries) {
      // Directory overflow (a thread reporting into 17+ registries):
      // fold the increment target into `retired` instead of tracking a
      // per-thread shard. Correct, merely slower.
      delete shard;
      return &impl_->retired;
    }
    impl_->shards.push_back(shard);
  }
  dir.entries[dir.count] = {this, shard};
  ++dir.count;
  return shard;
}

void MetricsRegistry::Unregister(Shard* shard) {
  MutexLock lock(impl_->mu);
  shard->MergeInto(&impl_->retired);
  for (size_t i = 0; i < impl_->shards.size(); ++i) {
    if (impl_->shards[i] == shard) {
      impl_->shards.erase(impl_->shards.begin() +
                          static_cast<ptrdiff_t>(i));
      break;
    }
  }
  delete shard;
}

void MetricsRegistry::Add(CounterId id, uint64_t delta) {
  CellAdd(LocalShard()->counters[Index(id)], delta);
}

void MetricsRegistry::SetGauge(GaugeId id, int64_t value) {
  impl_->gauges[Index(id)].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::Record(HistogramId id, uint64_t value) {
  Shard* shard = LocalShard();
  const size_t h = Index(id);
  CellAdd(shard->hist_buckets[h][BucketFor(value)], 1);
  CellAdd(shard->hist_count[h], 1);
  CellAdd(shard->hist_sum[h], value);
  AtomicMin(impl_->hist_min[h], value);
  AtomicMax(impl_->hist_max[h], value);
}

uint64_t MetricsRegistry::CounterValue(CounterId id) const {
  const size_t i = Index(id);
  MutexLock lock(impl_->mu);
  uint64_t total = impl_->retired.counters[i].load(std::memory_order_relaxed);
  for (const Shard* shard : impl_->shards) {
    total += shard->counters[i].load(std::memory_order_relaxed);
  }
  return total;
}

int64_t MetricsRegistry::GaugeValue(GaugeId id) const {
  return impl_->gauges[Index(id)].load(std::memory_order_relaxed);
}

HistogramSnapshot MetricsRegistry::HistogramValue(HistogramId id) const {
  const size_t h = Index(id);
  HistogramSnapshot snap;
  MutexLock lock(impl_->mu);
  auto merge = [&](const Shard& shard) {
    snap.count += shard.hist_count[h].load(std::memory_order_relaxed);
    snap.sum += shard.hist_sum[h].load(std::memory_order_relaxed);
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      snap.buckets[b] +=
          shard.hist_buckets[h][b].load(std::memory_order_relaxed);
    }
  };
  merge(impl_->retired);
  for (const Shard* shard : impl_->shards) merge(*shard);
  if (snap.count > 0) {
    snap.min = impl_->hist_min[h].load(std::memory_order_relaxed);
    snap.max = impl_->hist_max[h].load(std::memory_order_relaxed);
  }
  return snap;
}

QueryStats MetricsRegistry::CaptureQueryStats() const {
  uint64_t totals[kNumCounters] = {};
  {
    MutexLock lock(impl_->mu);
    auto merge = [&](const Shard& shard) {
      for (size_t i = 0; i < kNumCounters; ++i) {
        totals[i] += shard.counters[i].load(std::memory_order_relaxed);
      }
    };
    merge(impl_->retired);
    for (const Shard* shard : impl_->shards) merge(*shard);
  }
  auto value = [&](CounterId id) { return totals[Index(id)]; };
  QueryStats s;
  s.rtree_node_reads = value(CounterId::kRTreeNodeReads);
  s.rtree_node_writes = value(CounterId::kRTreeNodeWrites);
  s.rtree_splits = value(CounterId::kRTreeSplits);
  s.rtree_reinserts = value(CounterId::kRTreeReinserts);
  s.bbrs_heap_pops = value(CounterId::kBbrsHeapPops);
  s.bbrs_dominance_tests = value(CounterId::kBbrsDominanceTests);
  s.bbrs_pruned_entries = value(CounterId::kBbrsPrunedEntries);
  s.window_probes = value(CounterId::kWindowProbes);
  s.window_heap_pops = value(CounterId::kWindowHeapPops);
  s.window_dominance_tests = value(CounterId::kWindowDominanceTests);
  s.window_pruned_entries = value(CounterId::kWindowPrunedEntries);
  s.rsl_cache_hits = value(CounterId::kRslCacheHits);
  s.rsl_cache_misses = value(CounterId::kRslCacheMisses);
  s.rsl_cache_evictions = value(CounterId::kRslCacheEvictions);
  s.candidates_generated = value(CounterId::kCandidatesGenerated);
  s.candidates_examined = value(CounterId::kCandidatesExamined);
  s.safe_regions_computed = value(CounterId::kSafeRegionsComputed);
  s.safe_region_rects = value(CounterId::kSafeRegionRects);
  s.pool_parallel_fors = value(CounterId::kPoolParallelFors);
  s.pool_tasks_executed = value(CounterId::kPoolTasksExecuted);
  s.engine_queries = value(CounterId::kEngineQueries);
  s.packed_freezes = value(CounterId::kPackedFreezes);
  s.packed_freeze_ns = value(CounterId::kPackedFreezeNanos);
  s.packed_node_reads = value(CounterId::kPackedNodeReads);
  s.serve_requests = value(CounterId::kServeRequests);
  s.serve_admission_rejects = value(CounterId::kServeAdmissionRejects);
  s.serve_deadline_misses = value(CounterId::kServeDeadlineMisses);
  s.serve_batch_share_hits = value(CounterId::kServeBatchShareHits);
  return s;
}

void MetricsRegistry::Reset() {
  MutexLock lock(impl_->mu);
  impl_->retired.Zero();
  for (Shard* shard : impl_->shards) shard->Zero();
  for (size_t g = 0; g < kNumGauges; ++g) {
    impl_->gauges[g].store(0, std::memory_order_relaxed);
  }
  for (size_t h = 0; h < kNumHistograms; ++h) {
    impl_->hist_min[h].store(UINT64_MAX, std::memory_order_relaxed);
    impl_->hist_max[h].store(0, std::memory_order_relaxed);
  }
}

const char* MetricsRegistry::Name(CounterId id) {
  switch (id) {
    case CounterId::kRTreeNodeReads: return "rtree.node_reads";
    case CounterId::kRTreeNodeWrites: return "rtree.node_writes";
    case CounterId::kRTreeSplits: return "rtree.splits";
    case CounterId::kRTreeReinserts: return "rtree.reinserts";
    case CounterId::kBbrsHeapPops: return "bbrs.heap_pops";
    case CounterId::kBbrsDominanceTests: return "bbrs.dominance_tests";
    case CounterId::kBbrsPrunedEntries: return "bbrs.pruned_entries";
    case CounterId::kWindowProbes: return "window.probes";
    case CounterId::kWindowHeapPops: return "window.heap_pops";
    case CounterId::kWindowDominanceTests: return "window.dominance_tests";
    case CounterId::kWindowPrunedEntries: return "window.pruned_entries";
    case CounterId::kRslCacheHits: return "rsl_cache.hits";
    case CounterId::kRslCacheMisses: return "rsl_cache.misses";
    case CounterId::kRslCacheEvictions: return "rsl_cache.evictions";
    case CounterId::kCandidatesGenerated: return "candidates.generated";
    case CounterId::kCandidatesExamined: return "candidates.examined";
    case CounterId::kSafeRegionsComputed: return "safe_region.computed";
    case CounterId::kSafeRegionRects: return "safe_region.rects";
    case CounterId::kPoolParallelFors: return "pool.parallel_fors";
    case CounterId::kPoolTasksExecuted: return "pool.tasks_executed";
    case CounterId::kEngineQueries: return "engine.queries";
    case CounterId::kPackedFreezes: return "packed.freezes";
    case CounterId::kPackedFreezeNanos: return "packed.freeze_ns";
    case CounterId::kPackedNodeReads: return "packed.node_reads";
    case CounterId::kServeRequests: return "serve.requests";
    case CounterId::kServeAdmissionRejects: return "serve.admission_rejects";
    case CounterId::kServeDeadlineMisses: return "serve.deadline_misses";
    case CounterId::kServeBatchShareHits: return "serve.batch_share_hits";
    case CounterId::kCounterIdCount: break;
  }
  return "unknown";
}

const char* MetricsRegistry::Name(GaugeId id) {
  switch (id) {
    case GaugeId::kRslCacheSize: return "rsl_cache.size";
    case GaugeId::kPoolThreads: return "pool.threads";
    case GaugeId::kServeQueueDepth: return "serve.queue_depth";
    case GaugeId::kGaugeIdCount: break;
  }
  return "unknown";
}

const char* MetricsRegistry::Name(HistogramId id) {
  switch (id) {
    case HistogramId::kEngineQueryMicros: return "engine.query_us";
    case HistogramId::kPoolQueueWaitMicros: return "pool.queue_wait_us";
    case HistogramId::kSafeRegionRectsPerQuery:
      return "safe_region.rects_per_query";
    case HistogramId::kServeQueueWaitMicros: return "serve.queue_wait_us";
    case HistogramId::kHistogramIdCount: break;
  }
  return "unknown";
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\n  \"counters\": {\n";
  for (size_t i = 0; i < kNumCounters; ++i) {
    const CounterId id = static_cast<CounterId>(i);
    out += StrFormat("    \"%s\": %llu%s\n", Name(id),
                     static_cast<unsigned long long>(CounterValue(id)),
                     i + 1 < kNumCounters ? "," : "");
  }
  out += "  },\n  \"gauges\": {\n";
  for (size_t i = 0; i < kNumGauges; ++i) {
    const GaugeId id = static_cast<GaugeId>(i);
    out += StrFormat("    \"%s\": %lld%s\n", Name(id),
                     static_cast<long long>(GaugeValue(id)),
                     i + 1 < kNumGauges ? "," : "");
  }
  out += "  },\n  \"histograms\": {\n";
  for (size_t i = 0; i < kNumHistograms; ++i) {
    const HistogramId id = static_cast<HistogramId>(i);
    const HistogramSnapshot snap = HistogramValue(id);
    out += StrFormat(
        "    \"%s\": {\"count\": %llu, \"sum\": %llu, \"min\": %llu, "
        "\"max\": %llu, \"mean\": %.3f, \"buckets\": [",
        Name(id), static_cast<unsigned long long>(snap.count),
        static_cast<unsigned long long>(snap.sum),
        static_cast<unsigned long long>(snap.min),
        static_cast<unsigned long long>(snap.max), snap.Mean());
    // Only occupied buckets, to keep the document readable; the bounds
    // are implicit in `le` (the last bucket is unbounded -> null).
    bool first = true;
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      if (snap.buckets[b] == 0) continue;
      if (!first) out += ", ";
      first = false;
      if (b + 1 >= kHistogramBuckets) {
        out += StrFormat("{\"le\": null, \"count\": %llu}",
                         static_cast<unsigned long long>(snap.buckets[b]));
      } else {
        out += StrFormat(
            "{\"le\": %llu, \"count\": %llu}",
            static_cast<unsigned long long>(
                HistogramSnapshot::BucketUpperBound(b)),
            static_cast<unsigned long long>(snap.buckets[b]));
      }
    }
    out += StrFormat("]}%s\n", i + 1 < kNumHistograms ? "," : "");
  }
  out += "  }\n}\n";
  return out;
}

QueryStats QueryStats::operator-(const QueryStats& other) const {
  QueryStats d;
  d.rtree_node_reads = rtree_node_reads - other.rtree_node_reads;
  d.rtree_node_writes = rtree_node_writes - other.rtree_node_writes;
  d.rtree_splits = rtree_splits - other.rtree_splits;
  d.rtree_reinserts = rtree_reinserts - other.rtree_reinserts;
  d.bbrs_heap_pops = bbrs_heap_pops - other.bbrs_heap_pops;
  d.bbrs_dominance_tests = bbrs_dominance_tests - other.bbrs_dominance_tests;
  d.bbrs_pruned_entries = bbrs_pruned_entries - other.bbrs_pruned_entries;
  d.window_probes = window_probes - other.window_probes;
  d.window_heap_pops = window_heap_pops - other.window_heap_pops;
  d.window_dominance_tests =
      window_dominance_tests - other.window_dominance_tests;
  d.window_pruned_entries = window_pruned_entries - other.window_pruned_entries;
  d.rsl_cache_hits = rsl_cache_hits - other.rsl_cache_hits;
  d.rsl_cache_misses = rsl_cache_misses - other.rsl_cache_misses;
  d.rsl_cache_evictions = rsl_cache_evictions - other.rsl_cache_evictions;
  d.candidates_generated = candidates_generated - other.candidates_generated;
  d.candidates_examined = candidates_examined - other.candidates_examined;
  d.safe_regions_computed =
      safe_regions_computed - other.safe_regions_computed;
  d.safe_region_rects = safe_region_rects - other.safe_region_rects;
  d.pool_parallel_fors = pool_parallel_fors - other.pool_parallel_fors;
  d.pool_tasks_executed = pool_tasks_executed - other.pool_tasks_executed;
  d.engine_queries = engine_queries - other.engine_queries;
  d.packed_freezes = packed_freezes - other.packed_freezes;
  d.packed_freeze_ns = packed_freeze_ns - other.packed_freeze_ns;
  d.packed_node_reads = packed_node_reads - other.packed_node_reads;
  d.serve_requests = serve_requests - other.serve_requests;
  d.serve_admission_rejects =
      serve_admission_rejects - other.serve_admission_rejects;
  d.serve_deadline_misses =
      serve_deadline_misses - other.serve_deadline_misses;
  d.serve_batch_share_hits =
      serve_batch_share_hits - other.serve_batch_share_hits;
  return d;
}

QueryStats& QueryStats::operator+=(const QueryStats& other) {
  rtree_node_reads += other.rtree_node_reads;
  rtree_node_writes += other.rtree_node_writes;
  rtree_splits += other.rtree_splits;
  rtree_reinserts += other.rtree_reinserts;
  bbrs_heap_pops += other.bbrs_heap_pops;
  bbrs_dominance_tests += other.bbrs_dominance_tests;
  bbrs_pruned_entries += other.bbrs_pruned_entries;
  window_probes += other.window_probes;
  window_heap_pops += other.window_heap_pops;
  window_dominance_tests += other.window_dominance_tests;
  window_pruned_entries += other.window_pruned_entries;
  rsl_cache_hits += other.rsl_cache_hits;
  rsl_cache_misses += other.rsl_cache_misses;
  rsl_cache_evictions += other.rsl_cache_evictions;
  candidates_generated += other.candidates_generated;
  candidates_examined += other.candidates_examined;
  safe_regions_computed += other.safe_regions_computed;
  safe_region_rects += other.safe_region_rects;
  pool_parallel_fors += other.pool_parallel_fors;
  pool_tasks_executed += other.pool_tasks_executed;
  engine_queries += other.engine_queries;
  packed_freezes += other.packed_freezes;
  packed_freeze_ns += other.packed_freeze_ns;
  packed_node_reads += other.packed_node_reads;
  serve_requests += other.serve_requests;
  serve_admission_rejects += other.serve_admission_rejects;
  serve_deadline_misses += other.serve_deadline_misses;
  serve_batch_share_hits += other.serve_batch_share_hits;
  return *this;
}

std::string QueryStats::ToJson() const {
  auto field = [](const char* name, uint64_t v, bool last = false) {
    return StrFormat("\"%s\": %llu%s", name,
                     static_cast<unsigned long long>(v), last ? "" : ", ");
  };
  std::string out = "{";
  out += field("rtree_node_reads", rtree_node_reads);
  out += field("rtree_node_writes", rtree_node_writes);
  out += field("rtree_splits", rtree_splits);
  out += field("rtree_reinserts", rtree_reinserts);
  out += field("bbrs_heap_pops", bbrs_heap_pops);
  out += field("bbrs_dominance_tests", bbrs_dominance_tests);
  out += field("bbrs_pruned_entries", bbrs_pruned_entries);
  out += field("window_probes", window_probes);
  out += field("window_heap_pops", window_heap_pops);
  out += field("window_dominance_tests", window_dominance_tests);
  out += field("window_pruned_entries", window_pruned_entries);
  out += field("rsl_cache_hits", rsl_cache_hits);
  out += field("rsl_cache_misses", rsl_cache_misses);
  out += field("rsl_cache_evictions", rsl_cache_evictions);
  out += field("candidates_generated", candidates_generated);
  out += field("candidates_examined", candidates_examined);
  out += field("safe_regions_computed", safe_regions_computed);
  out += field("safe_region_rects", safe_region_rects);
  out += field("pool_parallel_fors", pool_parallel_fors);
  out += field("pool_tasks_executed", pool_tasks_executed);
  out += field("engine_queries", engine_queries);
  out += field("packed_freezes", packed_freezes);
  out += field("packed_freeze_ns", packed_freeze_ns);
  out += field("packed_node_reads", packed_node_reads);
  out += field("serve_requests", serve_requests);
  out += field("serve_admission_rejects", serve_admission_rejects);
  out += field("serve_deadline_misses", serve_deadline_misses);
  out += field("serve_batch_share_hits", serve_batch_share_hits);
  out += field("storage_page_reads", storage_page_reads);
  out += field("storage_page_writes", storage_page_writes);
  out += field("storage_cache_hits", storage_cache_hits);
  out += field("storage_cache_misses", storage_cache_misses,
               /*last=*/true);
  out += "}";
  return out;
}

}  // namespace wnrs
