#include "serve/scheduler.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace wnrs {
namespace serve {

namespace {

uint64_t MicrosBetween(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

WhyNotResponse UnavailableResponse(RequestKind kind, const char* message) {
  WhyNotResponse response;
  response.kind = kind;
  response.status = Status::Unavailable(message);
  return response;
}

}  // namespace

RequestScheduler::RequestScheduler(const WhyNotEngine* engine,
                                   SchedulerOptions options)
    : RequestScheduler(std::make_shared<const EngineBackend>(engine),
                       options) {}

RequestScheduler::RequestScheduler(
    std::shared_ptr<const QueryBackend> backend, SchedulerOptions options)
    : backend_(std::move(backend)),
      options_(options),
      paused_(options.start_paused) {
  const size_t num_workers = ThreadPool::HardwareConcurrency();
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back(&RequestScheduler::WorkerLoop, this);
  }
}

RequestScheduler::~RequestScheduler() { Shutdown(); }

std::future<WhyNotResponse> RequestScheduler::Submit(WhyNotRequest request) {
  std::promise<WhyNotResponse> promise;
  std::future<WhyNotResponse> future = promise.get_future();
  ReleasableLock lock(mu_);
  if (shutdown_) {
    lock.Release();
    promise.set_value(
        UnavailableResponse(request.kind, "scheduler is shut down"));
    return future;
  }
  if (queue_.size() >= options_.max_queue_depth) {
    ++stats_.admission_rejects;
    lock.Release();
    MetricAdd(CounterId::kServeAdmissionRejects);
    WhyNotResponse response;
    response.kind = request.kind;
    response.status = Status::ResourceExhausted(
        StrFormat("admission control: queue depth cap %zu reached",
                  options_.max_queue_depth));
    promise.set_value(std::move(response));
    return future;
  }
  ++stats_.submitted;
  Pending pending;
  pending.request = std::move(request);
  pending.promise = std::move(promise);
  pending.seq = next_seq_++;
  pending.submitted = std::chrono::steady_clock::now();
  // Relative timeouts resolve against the submit timestamp, here and
  // nowhere else — by the time a worker sees the request only the
  // absolute form remains.
  pending.deadline = EffectiveDeadline(pending.request, pending.submitted);
  queue_.push_back(std::move(pending));
  MetricAdd(CounterId::kServeRequests);
  MetricSetGauge(GaugeId::kServeQueueDepth,
                 static_cast<int64_t>(queue_.size()));
  lock.Release();
  cv_.NotifyOne();
  return future;
}

WhyNotResponse RequestScheduler::SubmitAndWait(WhyNotRequest request) {
  {
    // Fast path: after Shutdown there is nothing to wait for, so answer
    // Unavailable directly instead of building a promise/future pair just
    // to resolve it in the same call. (A shutdown racing past this check
    // is still handled by Submit.)
    MutexLock lock(mu_);
    if (shutdown_) {
      return UnavailableResponse(request.kind, "scheduler is shut down");
    }
  }
  return Submit(std::move(request)).get();
}

void RequestScheduler::Pause() {
  MutexLock lock(mu_);
  paused_ = true;
}

void RequestScheduler::Resume() {
  {
    MutexLock lock(mu_);
    paused_ = false;
  }
  cv_.NotifyAll();
}

void RequestScheduler::Shutdown() {
  // Serialize whole shutdowns: only one caller may join the workers (a
  // second concurrent join would be UB), and a racing caller must not
  // return before the queue is drained — callers rely on every
  // previously submitted future being fulfilled when Shutdown returns.
  MutexLock shutdown_lock(shutdown_mu_);
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  std::deque<Pending> leftover;
  {
    MutexLock lock(mu_);
    leftover.swap(queue_);
    MetricSetGauge(GaugeId::kServeQueueDepth, 0);
  }
  for (Pending& pending : leftover) {
    pending.promise.set_value(UnavailableResponse(
        pending.request.kind, "scheduler shut down while queued"));
  }
}

size_t RequestScheduler::queue_depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

SchedulerStats RequestScheduler::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void RequestScheduler::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch;
    std::chrono::steady_clock::time_point dispatch_time;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && (paused_ || queue_.empty())) cv_.Wait(mu_);
      if (shutdown_) return;
      // Head of line: highest priority; FIFO (lowest seq) within a
      // priority — the scan keeps the first maximum.
      size_t head = 0;
      for (size_t i = 1; i < queue_.size(); ++i) {
        if (queue_[i].request.priority > queue_[head].request.priority) {
          head = i;
        }
      }
      // Pull every queued request sharing the head's query point (up to
      // max_batch) into one dispatch, so SR(q)/RSL(q) is computed once.
      const Point q = queue_[head].request.q;
      const size_t cap = std::max<size_t>(options_.max_batch, 1);
      std::vector<size_t> take = {head};
      for (size_t i = 0; i < queue_.size() && take.size() < cap; ++i) {
        if (i != head && queue_[i].request.q == q) take.push_back(i);
      }
      std::sort(take.begin(), take.end());
      for (auto it = take.rbegin(); it != take.rend(); ++it) {
        batch.push_back(std::move(queue_[*it]));
        queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(*it));
      }
      std::reverse(batch.begin(), batch.end());  // Back to submission order.
      MetricSetGauge(GaugeId::kServeQueueDepth,
                     static_cast<int64_t>(queue_.size()));
      // Stamped under mu_, so queue waits follow pull order even when
      // several workers pull at once.
      dispatch_time = std::chrono::steady_clock::now();
    }
    ExecuteBatch(std::move(batch), dispatch_time);
  }
}

WhyNotResponse RequestScheduler::ExecuteOne(
    const QuerySnapshot& snapshot, const WhyNotRequest& request) const {
  WhyNotResponse response;
  response.kind = request.kind;
  // Every kind books its Result the same way: the status always, the
  // payload only when it was computed.
  auto take = [&response](auto result) {
    response.status = result.status();
    if (result.ok()) {
      response.payload = std::move(result).value();
      response.completed = true;
    }
  };
  const Point& q = request.q;
  const size_t c = request.c;
  const Semantics semantics = request.semantics;
  switch (request.kind) {
    case RequestKind::kReverseSkyline:
      take(snapshot.TryReverseSkyline(q));
      break;
    case RequestKind::kExplain:
      take(snapshot.TryExplain(c, q));
      break;
    case RequestKind::kModifyWhyNot:
      take(snapshot.TryModifyWhyNot(c, q, semantics));
      break;
    case RequestKind::kModifyQuery:
      take(snapshot.TryModifyQuery(c, q, semantics));
      break;
    case RequestKind::kSafeRegion:
      take(snapshot.TrySafeRegion(q));
      break;
    case RequestKind::kModifyBoth:
      take(snapshot.TryModifyBoth(c, q, semantics));
      break;
    case RequestKind::kModifyBothApprox:
      take(snapshot.TryModifyBothApprox(c, q, semantics));
      break;
  }
  return response;
}

void RequestScheduler::ExecuteBatch(
    std::vector<Pending> batch,
    std::chrono::steady_clock::time_point dispatch_time) {
  const bool shared = batch.size() >= 2;
  if (shared) {
    MetricAdd(CounterId::kServeBatchShareHits,
              static_cast<uint64_t>(batch.size() - 1));
    MutexLock lock(mu_);
    stats_.batch_share_hits += batch.size() - 1;
  }

  // One snapshot for the whole batch: every request is answered against
  // the same immutable backend state, and the batch keeps it pinned even
  // if a mutation publishes a newer one mid-flight.
  const std::shared_ptr<const QuerySnapshot> snapshot = backend_->Snapshot();

  struct Slot {
    Pending pending;
    WhyNotResponse response;
    bool done = false;
  };
  std::vector<Slot> slots;
  slots.reserve(batch.size());
  for (Pending& pending : batch) {
    Slot slot;
    slot.pending = std::move(pending);
    slots.push_back(std::move(slot));
  }

  // Queue-wait accounting and in-queue deadline expiry.
  for (Slot& slot : slots) {
    const uint64_t wait_us = MicrosBetween(slot.pending.submitted,
                                           dispatch_time);
    MetricRecord(HistogramId::kServeQueueWaitMicros, wait_us);
    slot.response.kind = slot.pending.request.kind;
    slot.response.shared_batch = shared;
    slot.response.queue_wait = std::chrono::microseconds(wait_us);
    const auto& deadline = slot.pending.deadline;
    if (deadline.has_value() && *deadline < dispatch_time) {
      slot.response.status = Status::DeadlineExceeded(
          StrFormat("deadline expired after %lluus in queue",
                    static_cast<unsigned long long>(wait_us)));
      slot.done = true;
      MetricAdd(CounterId::kServeDeadlineMisses);
      MutexLock lock(mu_);
      ++stats_.deadline_misses;
    }
  }

  // Same-semantics MWQ runs fan out on the engine's ThreadPool as one
  // batch call (exact and approx separately); everything else executes
  // sequentially against the snapshot's warmed caches.
  for (const bool use_approx : {false, true}) {
    const RequestKind kind = use_approx ? RequestKind::kModifyBothApprox
                                        : RequestKind::kModifyBoth;
    for (const Semantics semantics :
         {Semantics::kBoundary, Semantics::kStrict}) {
      std::vector<size_t> group;
      for (size_t i = 0; i < slots.size(); ++i) {
        const WhyNotRequest& r = slots[i].pending.request;
        if (!slots[i].done && r.kind == kind && r.semantics == semantics) {
          group.push_back(i);
        }
      }
      if (group.size() < 2) continue;
      std::vector<size_t> whos;
      whos.reserve(group.size());
      for (size_t i : group) whos.push_back(slots[i].pending.request.c);
      Result<std::vector<MwqResult>> res = snapshot->TryModifyBothBatch(
          whos, slots[group.front()].pending.request.q, use_approx,
          semantics);
      if (!res.ok()) continue;  // Some input invalid: fall through to
                                // per-request execution for exact errors.
      for (size_t j = 0; j < group.size(); ++j) {
        Slot& slot = slots[group[j]];
        slot.response.status = Status::Ok();
        slot.response.payload = std::move(res.value()[j]);
        slot.response.completed = true;
        slot.done = true;
      }
    }
  }

  for (Slot& slot : slots) {
    if (!slot.done) {
      WhyNotResponse computed = ExecuteOne(*snapshot, slot.pending.request);
      computed.shared_batch = slot.response.shared_batch;
      computed.queue_wait = slot.response.queue_wait;
      slot.response = std::move(computed);
      slot.done = true;
    }
  }

  // Mid-run expiry: the payload (when computed) is kept, but the status
  // tells the caller the answer arrived past its deadline.
  const auto finish_time = std::chrono::steady_clock::now();
  for (Slot& slot : slots) {
    const auto& deadline = slot.pending.deadline;
    if (slot.response.status.ok() && deadline.has_value() &&
        *deadline < finish_time) {
      slot.response.status =
          Status::DeadlineExceeded("request completed after its deadline");
      MetricAdd(CounterId::kServeDeadlineMisses);
      MutexLock lock(mu_);
      ++stats_.deadline_misses;
    }
  }

  {
    MutexLock lock(mu_);
    for (const Slot& slot : slots) {
      if (slot.response.completed) ++stats_.completed;
    }
  }
  for (Slot& slot : slots) {
    slot.pending.promise.set_value(std::move(slot.response));
  }
}

}  // namespace serve
}  // namespace wnrs
