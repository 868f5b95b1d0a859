#ifndef WNRS_PERFBENCH_TRACING_H_
#define WNRS_PERFBENCH_TRACING_H_

// Backend spans for the traced run. TracingBackend decorates the backend
// the server schedules onto (serve::EngineBackend or shard::ShardedBackend)
// and records one span per QuerySnapshot::Try* call, so the benchmark can
// split a request's client latency into queue wait, backend time and the
// rest without touching the server. Spans stay in memory until the run
// ends.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"
#include "serve/api.h"
#include "serve/backend.h"

namespace wnrs {
namespace perfbench {

/// Nanoseconds on the steady clock, the one clock every span shares.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Digest of a query point's coordinates: the key that joins a backend
/// span to the client request that caused it.
uint64_t PointKey(const Point& q);

/// Span kinds: the serve::RequestKind values, plus the batch calls.
enum SpanKind : int {
  kSpanBatchExact = 7,   ///< TryModifyBothBatch(use_approx = false).
  kSpanBatchApprox = 8,  ///< TryModifyBothBatch(use_approx = true).
  kSpanApproxRegion = 9, ///< TryApproxSafeRegion.
};

struct BackendSpan {
  int kind = 0;
  uint64_t q_key = 0;
  /// The why-not customers the call answered (one, or the batch; empty
  /// for the kinds that ignore c).
  std::vector<size_t> whos;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = true;
};

/// Thread-safe, append-only span store.
class SpanLog {
 public:
  void Add(BackendSpan span);
  /// Records one backend Snapshot() call: the scheduler takes exactly one
  /// per dispatched batch.
  void AddDispatch(int64_t at_ns);
  /// Moves out everything recorded so far.
  std::vector<BackendSpan> TakeSpans();
  std::vector<int64_t> TakeDispatches();

 private:
  Mutex mu_;
  std::vector<BackendSpan> spans_ WNRS_GUARDED_BY(mu_);
  std::vector<int64_t> dispatches_ WNRS_GUARDED_BY(mu_);
};

/// QueryBackend decorator that times every snapshot call into `log`.
class TracingBackend : public serve::QueryBackend {
 public:
  TracingBackend(std::shared_ptr<const serve::QueryBackend> inner,
                 std::shared_ptr<SpanLog> log);

  std::shared_ptr<const serve::QuerySnapshot> Snapshot() const override;

 private:
  std::shared_ptr<const serve::QueryBackend> inner_;
  std::shared_ptr<SpanLog> log_;
};

/// Writes spans as JSON lines (one object per span) to `path`.
bool WriteSpans(const std::string& path, const std::vector<BackendSpan>& spans);

}  // namespace perfbench
}  // namespace wnrs

#endif  // WNRS_PERFBENCH_TRACING_H_
