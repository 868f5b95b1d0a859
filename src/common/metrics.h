#ifndef WNRS_COMMON_METRICS_H_
#define WNRS_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace wnrs {

/// Process-wide counter identifiers. One cell per id lives in every
/// thread-local shard, so incrementing is a relaxed store on memory no
/// other thread writes — the hot paths (R*-tree traversals, dominance
/// loops) stay uncontended no matter how many pool workers run.
enum class CounterId : uint32_t {
  // R*-tree structural work.
  kRTreeNodeReads = 0,   ///< Nodes visited by any traversal (I/O proxy).
  kRTreeNodeWrites,      ///< Nodes structurally modified (insert/delete).
  kRTreeSplits,          ///< R* node splits.
  kRTreeReinserts,       ///< Entries evicted for forced reinsertion.
  // BBRS (global-skyline candidate generation + verification).
  kBbrsHeapPops,         ///< Best-first heap pops in ComputeGlobalSkyline.
  kBbrsDominanceTests,   ///< Global-dominance tests (point and rectangle).
  kBbrsPrunedEntries,    ///< Entries/subtrees discarded as dominated.
  // Window queries (probe, emptiness, branch-and-bound skyline).
  kWindowProbes,         ///< WindowQuery/WindowEmpty/WindowSkyline calls.
  kWindowHeapPops,       ///< Heap pops in WindowSkyline.
  kWindowDominanceTests, ///< Dominance tests in WindowSkyline.
  kWindowPrunedEntries,  ///< Entries pruned as dominated in WindowSkyline.
  // Query-keyed reverse-skyline memo in the engine.
  kRslCacheHits,
  kRslCacheMisses,
  kRslCacheEvictions,
  // MWP/MQP/MWQ candidate funnels.
  kCandidatesGenerated,  ///< Staircase/corner candidates produced.
  kCandidatesExamined,   ///< Candidates surviving feasibility/validation.
  // Safe regions (Algorithm 3 and the approximated variant).
  kSafeRegionsComputed,
  kSafeRegionRects,      ///< Rectangles in every computed safe region.
  // Thread pool.
  kPoolParallelFors,     ///< ParallelFor calls that actually fanned out.
  kPoolTasksExecuted,    ///< Loop indices executed on any thread.
  // Engine facade.
  kEngineQueries,        ///< Outermost public engine calls.
  // Packed (frozen) read path.
  kPackedFreezes,        ///< PackedRTree::Freeze calls (one per publish).
  kPackedFreezeNanos,    ///< Nanoseconds spent freezing packed trees.
  kPackedNodeReads,      ///< Node reads served by the packed read path.
  // Request scheduler (src/serve).
  kServeRequests,        ///< Requests admitted into the scheduler queue.
  kServeAdmissionRejects,///< Requests rejected by queue-depth admission.
  kServeDeadlineMisses,  ///< Requests whose deadline expired (pre- or mid-run).
  kServeBatchShareHits,  ///< Requests answered by sharing a same-q batch.
  kCounterIdCount,       // Keep last.
};

/// Last-value-wins metrics; set rarely, stored as single process-global
/// atomics (no sharding needed).
enum class GaugeId : uint32_t {
  kRslCacheSize = 0,  ///< Entries currently in the reverse-skyline memo.
  kPoolThreads,       ///< Concurrency of the most recently built pool.
  kServeQueueDepth,   ///< Requests currently queued in the scheduler.
  kGaugeIdCount,      // Keep last.
};

/// Fixed-bucket histograms with power-of-two bucket bounds: bucket i
/// counts values in (2^(i-1), 2^i], bucket 0 counts values <= 1, and the
/// last bucket absorbs everything larger. 32 buckets cover [0, 2^31),
/// which spans nanoseconds to half an hour when recording microseconds.
enum class HistogramId : uint32_t {
  kEngineQueryMicros = 0,   ///< Latency of outermost engine calls.
  kPoolQueueWaitMicros,     ///< Submit-to-pickup delay of pool jobs.
  kSafeRegionRectsPerQuery, ///< Rectangle count of each safe region.
  kServeQueueWaitMicros,    ///< Submit-to-dispatch delay of serve requests.
  kHistogramIdCount,        // Keep last.
};

inline constexpr size_t kNumCounters =
    static_cast<size_t>(CounterId::kCounterIdCount);
inline constexpr size_t kNumGauges =
    static_cast<size_t>(GaugeId::kGaugeIdCount);
inline constexpr size_t kNumHistograms =
    static_cast<size_t>(HistogramId::kHistogramIdCount);
inline constexpr size_t kHistogramBuckets = 32;

/// Merged view of one histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< 0 when count == 0.
  uint64_t max = 0;
  uint64_t buckets[kHistogramBuckets] = {};

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper bound of bucket i (inclusive); the last bucket is unbounded.
  static uint64_t BucketUpperBound(size_t i) {
    return i + 1 >= kHistogramBuckets ? UINT64_MAX : (uint64_t{1} << i);
  }
};

/// Per-call I/O and work statistics, snapshotted from the registry around
/// every outermost WhyNotEngine call. Field values are deltas (or totals
/// when accumulated); subtraction of two registry captures yields the
/// work done in between.
struct QueryStats {
  uint64_t rtree_node_reads = 0;
  uint64_t rtree_node_writes = 0;
  uint64_t rtree_splits = 0;
  uint64_t rtree_reinserts = 0;
  uint64_t bbrs_heap_pops = 0;
  uint64_t bbrs_dominance_tests = 0;
  uint64_t bbrs_pruned_entries = 0;
  uint64_t window_probes = 0;
  uint64_t window_heap_pops = 0;
  uint64_t window_dominance_tests = 0;
  uint64_t window_pruned_entries = 0;
  uint64_t rsl_cache_hits = 0;
  uint64_t rsl_cache_misses = 0;
  uint64_t rsl_cache_evictions = 0;
  uint64_t candidates_generated = 0;
  uint64_t candidates_examined = 0;
  uint64_t safe_regions_computed = 0;
  uint64_t safe_region_rects = 0;
  uint64_t pool_parallel_fors = 0;
  uint64_t pool_tasks_executed = 0;
  uint64_t engine_queries = 0;
  uint64_t packed_freezes = 0;
  uint64_t packed_freeze_ns = 0;
  uint64_t packed_node_reads = 0;
  uint64_t serve_requests = 0;
  uint64_t serve_admission_rejects = 0;
  uint64_t serve_deadline_misses = 0;
  uint64_t serve_batch_share_hits = 0;
  /// Page-file I/O and buffer-pool counters of the retired paged tree
  /// store. Bundles now hold only packed slabs, so these always read 0;
  /// they stay so bench records keep their keys (a zero baseline fails
  /// the bench gate if page I/O ever returns) and so existing readers
  /// of the cache-hit ratio still build (they see 0/0).
  uint64_t storage_page_reads = 0;
  uint64_t storage_page_writes = 0;
  uint64_t storage_cache_hits = 0;
  uint64_t storage_cache_misses = 0;

  QueryStats operator-(const QueryStats& other) const;
  QueryStats& operator+=(const QueryStats& other);
  /// One-line JSON object ({"rtree_node_reads": ..., ...}).
  std::string ToJson() const;
};

/// Dependency-free metrics registry. Counters are sharded per thread
/// (lock-free increments, merged on read); gauges and histogram min/max
/// are process-global atomics; histogram buckets are sharded like
/// counters. The default instance is a leaked singleton, so worker
/// threads may report into it at any point of process teardown.
///
/// Compile with WNRS_METRICS_DISABLED to turn every mutation into a
/// no-op (the read side then reports zeros) — the reference point for
/// measuring instrumentation overhead.
class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem reports into.
  static MetricsRegistry& Default();

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Hot path: relaxed add on this thread's shard cell.
  void Add(CounterId id, uint64_t delta = 1);

  void SetGauge(GaugeId id, int64_t value);

  /// Records one histogram observation (bucket + count/sum shard cells,
  /// global min/max).
  void Record(HistogramId id, uint64_t value);

  /// Merged counter value across live shards and exited threads.
  uint64_t CounterValue(CounterId id) const;
  int64_t GaugeValue(GaugeId id) const;
  HistogramSnapshot HistogramValue(HistogramId id) const;

  /// Snapshot of every counter as a QueryStats (totals since the last
  /// Reset); subtract two captures for a per-call delta.
  QueryStats CaptureQueryStats() const;

  /// All metrics as a pretty-printed JSON document:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson() const;

  /// Zeroes every counter, gauge, and histogram. Not linearizable with
  /// concurrent writers (a racing increment may survive or vanish), which
  /// is acceptable for its bench/test audience.
  void Reset();

  static const char* Name(CounterId id);
  static const char* Name(GaugeId id);
  static const char* Name(HistogramId id);

 private:
  struct Shard;
  friend struct ShardHandle;

  /// This thread's shard, registered on first use.
  Shard* LocalShard();
  void Unregister(Shard* shard);

  struct Impl;
  Impl* impl_;
};

/// Convenience wrappers against the default registry — the form all
/// instrumentation sites use.
#ifdef WNRS_METRICS_DISABLED
inline void MetricAdd(CounterId, uint64_t = 1) {}
inline void MetricSetGauge(GaugeId, int64_t) {}
inline void MetricRecord(HistogramId, uint64_t) {}
#else
inline void MetricAdd(CounterId id, uint64_t delta = 1) {
  MetricsRegistry::Default().Add(id, delta);
}
inline void MetricSetGauge(GaugeId id, int64_t value) {
  MetricsRegistry::Default().SetGauge(id, value);
}
inline void MetricRecord(HistogramId id, uint64_t value) {
  MetricsRegistry::Default().Record(id, value);
}
#endif

}  // namespace wnrs

#endif  // WNRS_COMMON_METRICS_H_
