#include "common/thread_pool.h"

#include <algorithm>

#include "common/metrics.h"

namespace wnrs {
namespace {

/// True while the current thread executes loop bodies of some ParallelFor
/// (a pool worker, or the submitter participating in its own loop).
/// Nested ParallelFor calls observe it and run inline.
thread_local bool tls_in_parallel_region = false;

}  // namespace

size_t ThreadPool::HardwareConcurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(num_threads == 0 ? HardwareConcurrency() : num_threads) {
  workers_.reserve(num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  MetricSetGauge(GaugeId::kPoolThreads,
                 static_cast<int64_t>(num_threads_));
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunJob(Job* job) {
  const bool was_in_region = tls_in_parallel_region;
  tls_in_parallel_region = true;
  const size_t total = job->end - job->begin;
  uint64_t executed = 0;
  size_t i;
  while ((i = job->next.fetch_add(1, std::memory_order_relaxed)) < job->end) {
    (*job->fn)(i);
    ++executed;
    // acq_rel so the submitter's acquire read of `completed == total`
    // orders every loop body's writes before ParallelFor returns.
    if (job->completed.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      MutexLock lock(mu_);
      done_cv_.NotifyAll();
    }
  }
  if (executed > 0) MetricAdd(CounterId::kPoolTasksExecuted, executed);
  tls_in_parallel_region = was_in_region;
}

ThreadPool::Job* ThreadPool::NextOpenJob() const {
  for (Job* job : jobs_) {
    if (job->next.load(std::memory_order_relaxed) < job->end) return job;
  }
  return nullptr;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mu_);
      while (!stop_ && (job = NextOpenJob()) == nullptr) work_cv_.Wait(mu_);
      if (stop_) return;
      ++job->active;
    }
    MetricRecord(HistogramId::kPoolQueueWaitMicros,
                 static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - job->submitted)
                         .count()));
    RunJob(job);
    {
      MutexLock lock(mu_);
      --job->active;
      done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn) {
  if (end <= begin) return;
  const size_t total = end - begin;
  // Serial paths: a 1-thread pool, a single-element range (fn may still
  // parallelize internally), or a nested call from inside a running loop
  // (the workers are busy with the outer loop anyway).
  if (workers_.empty() || total == 1 || tls_in_parallel_region) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  MetricAdd(CounterId::kPoolParallelFors);
  Job job;
  job.begin = begin;
  job.end = end;
  job.fn = &fn;
  job.next.store(begin, std::memory_order_relaxed);
  job.submitted = std::chrono::steady_clock::now();
  {
    MutexLock lock(mu_);
    jobs_.push_back(&job);
  }
  work_cv_.NotifyAll();
  RunJob(&job);
  {
    MutexLock lock(mu_);
    while (!(job.completed.load(std::memory_order_acquire) == total &&
             job.active == 0)) {
      done_cv_.Wait(mu_);
    }
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  }
}

}  // namespace wnrs
