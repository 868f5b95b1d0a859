#ifndef WNRS_SERVE_SCHEDULER_H_
#define WNRS_SERVE_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "core/engine.h"
#include "serve/api.h"
#include "serve/backend.h"

namespace wnrs {
namespace serve {

/// Scheduler tuning.
struct SchedulerOptions {
  /// Admission control: Submit rejects with ResourceExhausted once this
  /// many requests are queued (dispatched requests no longer count).
  size_t max_queue_depth = 1024;
  /// Cap on how many same-q requests one dispatch batch may absorb.
  size_t max_batch = 16;
  /// Construct paused (no dispatching until Resume()); lets tests fill
  /// the queue deterministically before the first dispatch.
  bool start_paused = false;
};

/// Point-in-time scheduler counters (process-global equivalents live in
/// MetricsRegistry under serve.*).
struct SchedulerStats {
  uint64_t submitted = 0;         ///< Admitted into the queue.
  uint64_t admission_rejects = 0; ///< Refused by the queue-depth cap.
  uint64_t deadline_misses = 0;   ///< Expired before or during execution.
  uint64_t batch_share_hits = 0;  ///< Requests that rode a same-q batch.
  uint64_t completed = 0;         ///< Responses delivered with a payload.
};

/// Deadline-aware request scheduler over one QueryBackend — a single
/// WhyNotEngine or the sharded engine, both behind the same listener. The
/// request/response types live in serve/api.h (they are shared with the
/// wire protocol in src/net/).
///
/// ThreadPool::HardwareConcurrency() worker threads drain one
/// priority+FIFO queue. A worker pulls the highest-priority, oldest
/// request together with every queued request sharing its query point q
/// (up to max_batch), takes the backend snapshot current at that moment,
/// and answers the batch against that one snapshot outside the queue lock
/// — the safe region and reverse skyline of q are computed once and shared
/// across the batch through the snapshot's synchronized caches, and
/// same-semantics MWQ runs fan out on the backend's existing ThreadPool
/// (no second pool). Batches run on several workers at once: every request
/// is a read-only traversal of an immutable snapshot. Backend mutations
/// interleave freely: a batch in flight keeps its snapshot while the next
/// dispatch observes the new one.
///
/// Deadlines: a request's relative `timeout` is resolved against the
/// Submit timestamp (see EffectiveDeadline for the precedence rule with
/// an absolute `deadline`); expiry is checked at dispatch and again after
/// execution.
///
/// Thread-safe: any number of threads may Submit concurrently.
class RequestScheduler {
 public:
  /// The engine must outlive the scheduler (the scheduler pins snapshots,
  /// not the engine itself). Convenience form of the backend constructor
  /// below, wrapping the engine in an EngineBackend.
  explicit RequestScheduler(const WhyNotEngine* engine,
                            SchedulerOptions options = {});

  /// Schedules onto any QueryBackend (serve/backend.h) — the seam the
  /// sharded engine plugs into. The backend must stay valid for the
  /// scheduler's lifetime.
  explicit RequestScheduler(std::shared_ptr<const QueryBackend> backend,
                            SchedulerOptions options = {});

  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Enqueues a request. The future is always eventually fulfilled:
  /// with the answer, or with ResourceExhausted (admission control),
  /// DeadlineExceeded (expired in queue), Unavailable (shutdown), or a
  /// validation error from the engine's Try* layer. After Shutdown the
  /// returned future is already fulfilled (Unavailable) when Submit
  /// returns.
  /// [[nodiscard]]: dropping the future silently swallows admission
  /// rejects, deadline misses, and every other per-request error.
  [[nodiscard]] std::future<WhyNotResponse> Submit(WhyNotRequest request);

  /// Submit + block for the response. After Shutdown this returns an
  /// Unavailable response immediately, without touching the
  /// promise/future machinery of the rejected-submit path.
  [[nodiscard]] WhyNotResponse SubmitAndWait(WhyNotRequest request);

  /// Stops every worker from pulling new batches (in-flight batches
  /// finish); Submit still admits.
  void Pause();
  void Resume();

  /// Stops every worker (in-flight batches finish) and fails every
  /// still-queued request with Unavailable. When Shutdown returns, every
  /// future handed out by an earlier Submit is fulfilled. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  /// Requests currently queued (excludes in-flight dispatches).
  size_t queue_depth() const;

  SchedulerStats stats() const;

 private:
  struct Pending {
    WhyNotRequest request;
    std::promise<WhyNotResponse> promise;
    uint64_t seq = 0;
    std::chrono::steady_clock::time_point submitted;
    /// deadline/timeout resolved at Submit time (api.h EffectiveDeadline).
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  void WorkerLoop();
  /// Answers one pulled batch; `dispatch_time` is when it left the queue.
  void ExecuteBatch(std::vector<Pending> batch,
                    std::chrono::steady_clock::time_point dispatch_time);
  /// Runs one validated request against the shared snapshot.
  WhyNotResponse ExecuteOne(const QuerySnapshot& snapshot,
                            const WhyNotRequest& request) const;

  const std::shared_ptr<const QueryBackend> backend_;
  const SchedulerOptions options_;

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Pending> queue_ WNRS_GUARDED_BY(mu_);
  uint64_t next_seq_ WNRS_GUARDED_BY(mu_) = 0;
  bool paused_ WNRS_GUARDED_BY(mu_) = false;
  bool shutdown_ WNRS_GUARDED_BY(mu_) = false;
  SchedulerStats stats_ WNRS_GUARDED_BY(mu_);

  /// Serializes Shutdown callers: the first one joins the workers and
  /// drains the queue while any later caller blocks here until that is
  /// done (two threads joining the same std::thread is UB). Ordered
  /// strictly before mu_ (never acquire shutdown_mu_ with mu_ held).
  Mutex shutdown_mu_;
  std::vector<std::thread> workers_ WNRS_GUARDED_BY(shutdown_mu_);
};

}  // namespace serve
}  // namespace wnrs

#endif  // WNRS_SERVE_SCHEDULER_H_
