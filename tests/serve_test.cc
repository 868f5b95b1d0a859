// Tests for the deadline-aware RequestScheduler: result parity with the
// direct engine API, pinned deadline-miss and same-q batch-sharing
// behavior, admission control, graceful degradation on malformed input,
// and shutdown semantics. Deterministic scheduling states are arranged
// with start_paused + Resume, never with sleeps.

#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/thread_pool.h"
#include "data/generators.h"

namespace wnrs {
namespace serve {
namespace {

WhyNotEngine MakeEngine(size_t n = 200, uint64_t seed = 5) {
  WhyNotEngineOptions options;
  options.num_threads = 1;
  return WhyNotEngine(GenerateCarDb(n, seed), options);
}

WhyNotRequest MakeRequest(RequestKind kind, const Point& q, size_t c = 0) {
  WhyNotRequest request;
  request.kind = kind;
  request.q = q;
  request.c = c;
  return request;
}

TEST(ServeTest, ResultsMatchDirectEngineCalls) {
  const WhyNotEngine engine = MakeEngine();
  RequestScheduler scheduler(&engine);
  const Point q = engine.products().points[3];
  const size_t c = 11;

  WhyNotResponse r =
      scheduler.SubmitAndWait(MakeRequest(RequestKind::kReverseSkyline, q));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.reverse_skyline(), engine.ReverseSkyline(q));

  r = scheduler.SubmitAndWait(MakeRequest(RequestKind::kExplain, q, c));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.explanation().culprits, engine.Explain(c, q).culprits);

  r = scheduler.SubmitAndWait(MakeRequest(RequestKind::kModifyWhyNot, q, c));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  const MwpResult mwp = engine.ModifyWhyNot(c, q);
  ASSERT_EQ(r.mwp().candidates.size(), mwp.candidates.size());
  for (size_t i = 0; i < mwp.candidates.size(); ++i) {
    EXPECT_EQ(r.mwp().candidates[i].cost, mwp.candidates[i].cost);
    EXPECT_EQ(r.mwp().candidates[i].point, mwp.candidates[i].point);
  }

  r = scheduler.SubmitAndWait(MakeRequest(RequestKind::kModifyQuery, q, c));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  const MqpResult mqp = engine.ModifyQuery(c, q);
  ASSERT_EQ(r.mqp().candidates.size(), mqp.candidates.size());

  r = scheduler.SubmitAndWait(MakeRequest(RequestKind::kSafeRegion, q));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_NE(r.safe_region(), nullptr);
  EXPECT_EQ(r.safe_region()->region.size(), engine.SafeRegion(q).region.size());

  r = scheduler.SubmitAndWait(MakeRequest(RequestKind::kModifyBoth, q, c));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.mwq().best_cost, engine.ModifyBoth(c, q).best_cost);

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(stats.admission_rejects, 0u);
}

TEST(ServeTest, StrictSemanticsThreadsThrough) {
  const WhyNotEngine engine = MakeEngine();
  RequestScheduler scheduler(&engine);
  const Point q = engine.products().points[3];
  WhyNotRequest request = MakeRequest(RequestKind::kModifyWhyNot, q, 11);
  request.semantics = Semantics::kStrict;
  const WhyNotResponse r = scheduler.SubmitAndWait(request);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  const MwpResult strict =
      engine.ModifyWhyNot(11, q, Semantics::kStrict);
  ASSERT_EQ(r.mwp().candidates.size(), strict.candidates.size());
  for (size_t i = 0; i < strict.candidates.size(); ++i) {
    EXPECT_EQ(r.mwp().candidates[i].point, strict.candidates[i].point);
  }
}

// A request whose deadline has already passed when the dispatcher reaches
// it is answered DeadlineExceeded without running.
TEST(ServeTest, ExpiredDeadlineIsMissWithoutExecution) {
  const WhyNotEngine engine = MakeEngine();
  SchedulerOptions options;
  options.start_paused = true;
  RequestScheduler scheduler(&engine, options);
  const Point q = engine.products().points[0];

  WhyNotRequest request = MakeRequest(RequestKind::kModifyBoth, q, 7);
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  std::future<WhyNotResponse> expired = scheduler.Submit(request);
  // Same q, no deadline: proves the batch-mate still runs.
  std::future<WhyNotResponse> fine =
      scheduler.Submit(MakeRequest(RequestKind::kModifyBoth, q, 7));
  scheduler.Resume();

  const WhyNotResponse r1 = expired.get();
  EXPECT_EQ(r1.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(r1.completed);
  EXPECT_TRUE(r1.mwq().query_candidates.empty());

  const WhyNotResponse r2 = fine.get();
  EXPECT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_TRUE(r2.completed);

  EXPECT_EQ(scheduler.stats().deadline_misses, 1u);
}

// Same-q requests queued together dispatch as one batch: one shared
// snapshot computation, batch_share_hits counts the riders.
TEST(ServeTest, SameQueryRequestsShareOneBatch) {
  const WhyNotEngine engine = MakeEngine();
  SchedulerOptions options;
  options.start_paused = true;
  RequestScheduler scheduler(&engine, options);
  const Point q = engine.products().points[5];

  std::vector<std::future<WhyNotResponse>> futures;
  for (size_t c : {3u, 9u, 14u, 21u}) {
    futures.push_back(
        scheduler.Submit(MakeRequest(RequestKind::kModifyBoth, q, c)));
  }
  EXPECT_EQ(scheduler.queue_depth(), 4u);
  scheduler.Resume();

  for (auto& f : futures) {
    const WhyNotResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.shared_batch);
    EXPECT_FALSE(r.mwq().query_candidates.empty());
  }
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.batch_share_hits, 3u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(scheduler.queue_depth(), 0u);
}

// max_batch caps how many same-q requests one dispatch absorbs.
TEST(ServeTest, MaxBatchCapsSharing) {
  const WhyNotEngine engine = MakeEngine();
  SchedulerOptions options;
  options.start_paused = true;
  options.max_batch = 2;
  RequestScheduler scheduler(&engine, options);
  const Point q = engine.products().points[5];

  std::vector<std::future<WhyNotResponse>> futures;
  for (size_t i = 0; i < 4; ++i) {
    futures.push_back(
        scheduler.Submit(MakeRequest(RequestKind::kReverseSkyline, q)));
  }
  scheduler.Resume();
  for (auto& f : futures) {
    ASSERT_TRUE(f.get().status.ok());
  }
  // Two batches of two -> one rider each.
  EXPECT_EQ(scheduler.stats().batch_share_hits, 2u);
}

// Higher priority dispatches first even when submitted later.
TEST(ServeTest, PriorityOrdersDispatch) {
  const WhyNotEngine engine = MakeEngine();
  SchedulerOptions options;
  options.start_paused = true;
  RequestScheduler scheduler(&engine, options);
  const Point q_low = engine.products().points[1];
  const Point q_high = engine.products().points[2];

  WhyNotRequest low = MakeRequest(RequestKind::kReverseSkyline, q_low);
  WhyNotRequest high = MakeRequest(RequestKind::kReverseSkyline, q_high);
  high.priority = 10;
  std::future<WhyNotResponse> f_low = scheduler.Submit(low);
  std::future<WhyNotResponse> f_high = scheduler.Submit(high);
  scheduler.Resume();

  const WhyNotResponse r_low = f_low.get();
  const WhyNotResponse r_high = f_high.get();
  ASSERT_TRUE(r_low.status.ok());
  ASSERT_TRUE(r_high.status.ok());
  // The high-priority request waited no longer than the earlier-submitted
  // low-priority one (it jumped the queue).
  EXPECT_LE(r_high.queue_wait.count(), r_low.queue_wait.count());
}

TEST(ServeTest, AdmissionControlRejectsWhenQueueFull) {
  const WhyNotEngine engine = MakeEngine();
  SchedulerOptions options;
  options.start_paused = true;
  options.max_queue_depth = 2;
  RequestScheduler scheduler(&engine, options);
  const Point q = engine.products().points[0];

  std::future<WhyNotResponse> f1 =
      scheduler.Submit(MakeRequest(RequestKind::kReverseSkyline, q));
  std::future<WhyNotResponse> f2 =
      scheduler.Submit(MakeRequest(RequestKind::kSafeRegion, q));
  std::future<WhyNotResponse> f3 =
      scheduler.Submit(MakeRequest(RequestKind::kModifyBoth, q, 4));

  // The third is rejected immediately (the scheduler is paused, so no
  // queue slot can have freed up).
  const WhyNotResponse r3 = f3.get();
  EXPECT_EQ(r3.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(r3.completed);
  EXPECT_EQ(scheduler.stats().admission_rejects, 1u);

  scheduler.Resume();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  EXPECT_EQ(scheduler.stats().completed, 2u);
}

// Malformed requests come back as error responses, never aborts.
TEST(ServeTest, InvalidRequestsDegradeGracefully) {
  const WhyNotEngine engine = MakeEngine();
  RequestScheduler scheduler(&engine);
  const Point q = engine.products().points[0];

  // Customer index out of range.
  WhyNotResponse r = scheduler.SubmitAndWait(
      MakeRequest(RequestKind::kModifyWhyNot, q, engine.customers().size()));
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(r.completed);

  // Wrong-dimensional query point.
  r = scheduler.SubmitAndWait(
      MakeRequest(RequestKind::kReverseSkyline, Point({1.0, 2.0, 3.0})));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);

  // Approx MWQ without a precomputed approx store.
  r = scheduler.SubmitAndWait(
      MakeRequest(RequestKind::kModifyBothApprox, q, 4));
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);

  // A bad request inside a same-q batch fails alone; its batch-mates
  // still succeed.
  SchedulerOptions options;
  options.start_paused = true;
  RequestScheduler paused(&engine, options);
  std::future<WhyNotResponse> good =
      paused.Submit(MakeRequest(RequestKind::kModifyBoth, q, 4));
  std::future<WhyNotResponse> bad = paused.Submit(
      MakeRequest(RequestKind::kModifyBoth, q, engine.customers().size()));
  paused.Resume();
  EXPECT_TRUE(good.get().status.ok());
  EXPECT_EQ(bad.get().status.code(), StatusCode::kOutOfRange);
}

// The response payload is a tagged variant; the tag must track the kind
// for successes and stay kNoPayload for failures.
TEST(ServeTest, PayloadTagTracksRequestKind) {
  const WhyNotEngine engine = MakeEngine();
  RequestScheduler scheduler(&engine);
  const Point q = engine.products().points[3];

  WhyNotResponse r =
      scheduler.SubmitAndWait(MakeRequest(RequestKind::kReverseSkyline, q));
  EXPECT_EQ(r.payload_tag(), WhyNotResponse::kReverseSkylinePayload);
  r = scheduler.SubmitAndWait(MakeRequest(RequestKind::kExplain, q, 11));
  EXPECT_EQ(r.payload_tag(), WhyNotResponse::kExplanationPayload);
  r = scheduler.SubmitAndWait(MakeRequest(RequestKind::kModifyWhyNot, q, 11));
  EXPECT_EQ(r.payload_tag(), WhyNotResponse::kMwpPayload);
  r = scheduler.SubmitAndWait(MakeRequest(RequestKind::kModifyQuery, q, 11));
  EXPECT_EQ(r.payload_tag(), WhyNotResponse::kMqpPayload);
  r = scheduler.SubmitAndWait(MakeRequest(RequestKind::kSafeRegion, q));
  EXPECT_EQ(r.payload_tag(), WhyNotResponse::kSafeRegionPayload);
  r = scheduler.SubmitAndWait(MakeRequest(RequestKind::kModifyBoth, q, 11));
  EXPECT_EQ(r.payload_tag(), WhyNotResponse::kMwqPayload);

  // Failure: no payload, and every accessor returns its empty default.
  r = scheduler.SubmitAndWait(
      MakeRequest(RequestKind::kModifyWhyNot, q, engine.customers().size()));
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.payload_tag(), WhyNotResponse::kNoPayload);
  EXPECT_TRUE(r.reverse_skyline().empty());
  EXPECT_TRUE(r.mwp().candidates.empty());
  EXPECT_EQ(r.safe_region(), nullptr);
  EXPECT_EQ(r.mwq().best_cost, 0.0);
}

// A relative timeout is resolved against the Submit timestamp: a zero
// timeout is already expired when the dispatcher reaches it, a generous
// one completes.
TEST(ServeTest, TimeoutResolvesAgainstSubmitTime) {
  const WhyNotEngine engine = MakeEngine();
  SchedulerOptions options;
  options.start_paused = true;
  RequestScheduler scheduler(&engine, options);
  const Point q = engine.products().points[0];

  WhyNotRequest expired = MakeRequest(RequestKind::kReverseSkyline, q);
  expired.timeout = std::chrono::microseconds(0);
  WhyNotRequest fine = MakeRequest(RequestKind::kReverseSkyline, q);
  fine.timeout = std::chrono::hours(1);
  std::future<WhyNotResponse> f_expired = scheduler.Submit(expired);
  std::future<WhyNotResponse> f_fine = scheduler.Submit(fine);
  scheduler.Resume();

  EXPECT_EQ(f_expired.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(f_fine.get().status.ok());
  EXPECT_EQ(scheduler.stats().deadline_misses, 1u);
}

// When both an absolute deadline and a relative timeout are set, the
// earlier effective deadline wins in either direction.
TEST(ServeTest, DeadlineTimeoutPrecedenceEarlierWins) {
  const auto now = std::chrono::steady_clock::now();
  WhyNotRequest request;

  EXPECT_FALSE(EffectiveDeadline(request, now).has_value());

  request.timeout = std::chrono::seconds(1);
  EXPECT_EQ(EffectiveDeadline(request, now),
            now + std::chrono::seconds(1));

  // Timeout tightens a later absolute deadline...
  request.deadline = now + std::chrono::seconds(10);
  EXPECT_EQ(EffectiveDeadline(request, now),
            now + std::chrono::seconds(1));

  // ...and an earlier absolute deadline beats a longer timeout.
  request.deadline = now + std::chrono::milliseconds(1);
  request.timeout = std::chrono::seconds(10);
  EXPECT_EQ(EffectiveDeadline(request, now),
            now + std::chrono::milliseconds(1));

  request.timeout.reset();
  EXPECT_EQ(EffectiveDeadline(request, now),
            now + std::chrono::milliseconds(1));
}

// Pinned regression: SubmitAndWait after Shutdown must return (with
// Unavailable) immediately instead of blocking, and Submit's future must
// already be fulfilled when Submit returns.
TEST(ServeTest, SubmitAfterShutdownFulfillsImmediately) {
  const WhyNotEngine engine = MakeEngine();
  RequestScheduler scheduler(&engine);
  const Point q = engine.products().points[0];
  scheduler.Shutdown();

  const WhyNotResponse r =
      scheduler.SubmitAndWait(MakeRequest(RequestKind::kReverseSkyline, q));
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.payload_tag(), WhyNotResponse::kNoPayload);

  std::future<WhyNotResponse> f =
      scheduler.Submit(MakeRequest(RequestKind::kModifyBoth, q, 3));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(f.get().status.code(), StatusCode::kUnavailable);
}

TEST(ServeTest, ShutdownFailsQueuedRequests) {
  const WhyNotEngine engine = MakeEngine();
  SchedulerOptions options;
  options.start_paused = true;
  RequestScheduler scheduler(&engine, options);
  const Point q = engine.products().points[0];

  std::future<WhyNotResponse> f =
      scheduler.Submit(MakeRequest(RequestKind::kReverseSkyline, q));
  scheduler.Shutdown();
  const WhyNotResponse r = f.get();
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(r.completed);

  // Submitting after shutdown is also Unavailable, and Shutdown is
  // idempotent.
  const WhyNotResponse r2 =
      scheduler.SubmitAndWait(MakeRequest(RequestKind::kReverseSkyline, q));
  EXPECT_EQ(r2.status.code(), StatusCode::kUnavailable);
  scheduler.Shutdown();
}

// Pinned regression: Shutdown must be callable from several threads at
// once. Before shutdown_mu_ serialized it, two racing callers could
// both observe dispatcher_.joinable() and call join() on the same
// std::thread concurrently — undefined behavior (and a terminate() in
// practice when the loser joins an already-joined thread). Run under
// TSan in the sanitizer job this also pins the dispatcher_ handoff.
TEST(ServeTest, ConcurrentShutdownIsSerializedAndIdempotent) {
  for (int round = 0; round < 20; ++round) {
    const WhyNotEngine engine = MakeEngine(60, 7);
    RequestScheduler scheduler(&engine);
    const Point q = engine.products().points[0];
    // In-flight work so Shutdown races a live dispatcher, not an idle one.
    std::future<WhyNotResponse> f =
        scheduler.Submit(MakeRequest(RequestKind::kReverseSkyline, q));

    constexpr int kCallers = 4;
    std::atomic<int> ready{0};
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&] {
        // Spin barrier: maximize the window where all callers enter
        // Shutdown together.
        ++ready;
        while (ready.load() < kCallers) {
        }
        scheduler.Shutdown();
      });
    }
    for (std::thread& th : callers) th.join();

    // The raced request resolved one way or the other (executed or
    // failed Unavailable), and every post-Shutdown submit refuses.
    const WhyNotResponse r = f.get();
    EXPECT_TRUE(r.status.ok() || r.status.code() == StatusCode::kUnavailable)
        << r.status.ToString();
    EXPECT_EQ(scheduler.SubmitAndWait(MakeRequest(RequestKind::kReverseSkyline,
                                                  q))
                  .status.code(),
              StatusCode::kUnavailable);
  }
}

/// A snapshot whose TryReverseSkyline returns only once two calls are
/// inside it at the same time, and fails after 5 s of waiting. Every
/// other kind is unimplemented.
class RendezvousSnapshot final : public QuerySnapshot {
 public:
  Result<std::vector<size_t>> TryReverseSkyline(const Point&) const override {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    MutexLock lock(mu_);
    if (++inside_ == 2) {
      met_ = true;
      cv_.NotifyAll();
    }
    while (!met_) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= give_up) {
        --inside_;
        return Status::DeadlineExceeded("no second call arrived");
      }
      cv_.WaitFor(mu_, give_up - now);
    }
    --inside_;
    return std::vector<size_t>{};
  }
  Result<WhyNotExplanation> TryExplain(size_t, const Point&) const override {
    return Unused();
  }
  Result<MwpResult> TryModifyWhyNot(size_t, const Point&,
                                    Semantics) const override {
    return Unused();
  }
  Result<MqpResult> TryModifyQuery(size_t, const Point&,
                                   Semantics) const override {
    return Unused();
  }
  Result<std::shared_ptr<const SafeRegionResult>> TrySafeRegion(
      const Point&) const override {
    return Unused();
  }
  Result<std::shared_ptr<const SafeRegionResult>> TryApproxSafeRegion(
      const Point&) const override {
    return Unused();
  }
  Result<MwqResult> TryModifyBoth(size_t, const Point&,
                                  Semantics) const override {
    return Unused();
  }
  Result<MwqResult> TryModifyBothApprox(size_t, const Point&,
                                        Semantics) const override {
    return Unused();
  }
  Result<std::vector<MwqResult>> TryModifyBothBatch(
      const std::vector<size_t>&, const Point&, bool,
      Semantics) const override {
    return Unused();
  }

 private:
  static Status Unused() { return Status::Unimplemented("not in this test"); }

  mutable Mutex mu_;
  mutable CondVar cv_;
  /// Calls inside TryReverseSkyline right now.
  mutable int inside_ WNRS_GUARDED_BY(mu_) = 0;
  /// Set once two calls were inside at the same time.
  mutable bool met_ WNRS_GUARDED_BY(mu_) = false;
};

class RendezvousBackend final : public QueryBackend {
 public:
  std::shared_ptr<const QuerySnapshot> Snapshot() const override {
    return snapshot_;
  }

 private:
  const std::shared_ptr<const QuerySnapshot> snapshot_ =
      std::make_shared<const RendezvousSnapshot>();
};

// Requests for different query points run on different workers at once:
// each blocks inside the snapshot until the other is there too. A single
// dispatcher thread would hold one of them alone until it timed out.
TEST(ServeTest, DifferentQueriesRunConcurrently) {
  if (ThreadPool::HardwareConcurrency() < 2) {
    GTEST_SKIP() << "one hardware thread: the scheduler has one worker";
  }
  RequestScheduler scheduler(std::make_shared<const RendezvousBackend>());
  std::future<WhyNotResponse> a = scheduler.Submit(
      MakeRequest(RequestKind::kReverseSkyline, Point({1.0, 2.0})));
  std::future<WhyNotResponse> b = scheduler.Submit(
      MakeRequest(RequestKind::kReverseSkyline, Point({3.0, 4.0})));
  const WhyNotResponse ra = a.get();
  const WhyNotResponse rb = b.get();
  EXPECT_TRUE(ra.status.ok()) << ra.status.ToString();
  EXPECT_TRUE(rb.status.ok()) << rb.status.ToString();
  EXPECT_FALSE(ra.shared_batch);
  EXPECT_FALSE(rb.shared_batch);
}

TEST(ServeTest, RequestKindNamesAreStable) {
  EXPECT_STREQ(RequestKindName(RequestKind::kReverseSkyline),
               "reverse_skyline");
  EXPECT_STREQ(RequestKindName(RequestKind::kModifyBoth), "modify_both");
  EXPECT_STREQ(RequestKindName(RequestKind::kModifyBothApprox),
               "modify_both_approx");
}

}  // namespace
}  // namespace serve
}  // namespace wnrs
