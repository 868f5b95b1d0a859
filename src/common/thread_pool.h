#ifndef WNRS_COMMON_THREAD_POOL_H_
#define WNRS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"

namespace wnrs {

/// Fixed-size fork-join thread pool behind the engine's embarrassingly
/// parallel loops (per-customer DSL precomputation, per-why-not batch
/// answering, per-candidate reverse-skyline verification).
///
/// Design constraints, in priority order: determinism, simplicity, zero
/// dependencies. There is no work stealing and no task graph — the only
/// primitive is a blocking ParallelFor over an index range, with indices
/// handed out one at a time from an atomic cursor. Callers write results
/// into per-index slots, which keeps outputs bit-identical to the serial
/// loop no matter how the indices are scheduled.
///
/// Nested ParallelFor calls — from inside a worker, or from the
/// submitting thread while it participates in its own loop — degrade to
/// the plain serial loop, so parallel code composes freely without
/// deadlock or thread oversubscription. Concurrent ParallelFor calls from
/// distinct external threads run at the same time: each submitter works
/// its own loop, and an idle worker joins the oldest loop that still has
/// unclaimed indices.
///
/// A pool with `num_threads == 1` owns no worker threads and runs every
/// loop inline in the calling thread: the bit-exact serial fallback.
class ThreadPool {
 public:
  /// `num_threads == 0` uses HardwareConcurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency of this pool's loops, including the submitting
  /// thread (the pool owns num_threads() - 1 workers).
  size_t num_threads() const { return num_threads_; }

  /// std::thread::hardware_concurrency() with a floor of 1.
  static size_t HardwareConcurrency();

  /// Runs fn(i) for every i in [begin, end), each exactly once, and
  /// blocks until all calls have returned. The submitting thread
  /// participates in the work.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

  /// Maps [0, n) through fn into a vector: out[i] = fn(i), exactly as the
  /// serial loop would produce. T must be default-constructible.
  template <typename T, typename Fn>
  std::vector<T> ParallelMap(size_t n, Fn&& fn) {
    std::vector<T> out(n);
    ParallelFor(0, n, [&](size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  /// One ParallelFor invocation; lives on the submitter's stack. `next`
  /// is the work cursor, `completed` counts finished indices, and
  /// `active` (guarded by mu_) counts workers still inside RunJob so the
  /// submitter never returns — destroying the job — under a live worker.
  struct Job {
    size_t begin = 0;
    size_t end = 0;
    const std::function<void(size_t)>* fn = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    /// Guarded by the owning pool's mu_ (GUARDED_BY cannot name another
    /// object's mutex, so the protocol is documented rather than
    /// annotated here; every access site locks mu_).
    int active = 0;
    /// Submission time, for the queue-wait histogram.
    std::chrono::steady_clock::time_point submitted;
  };

  void WorkerLoop();
  void RunJob(Job* job);
  /// The oldest listed job with unclaimed indices, or nullptr.
  Job* NextOpenJob() const WNRS_REQUIRES(mu_);

  size_t num_threads_ = 1;
  std::vector<std::thread> workers_;

  /// Guards jobs_, stop_, and Job::active.
  Mutex mu_;
  CondVar work_cv_;  // Workers wait here for a new job.
  CondVar done_cv_;  // Submitters wait here for their job to complete.
  /// Every running ParallelFor, in submission order. A submitter appends
  /// its job and unlinks it once the job is complete and no worker is
  /// left inside it.
  std::vector<Job*> jobs_ WNRS_GUARDED_BY(mu_);
  bool stop_ WNRS_GUARDED_BY(mu_) = false;
};

}  // namespace wnrs

#endif  // WNRS_COMMON_THREAD_POOL_H_
