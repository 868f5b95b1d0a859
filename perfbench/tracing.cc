#include "tracing.h"

#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "stats.h"
#include "storage/file_io.h"

namespace wnrs {
namespace perfbench {

uint64_t PointKey(const Point& q) {
  const std::vector<double>& coords = q.coords();
  return Fnv1a(std::string_view(reinterpret_cast<const char*>(coords.data()),
                                coords.size() * sizeof(double)));
}

void SpanLog::Add(BackendSpan span) {
  MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

void SpanLog::AddDispatch(int64_t at_ns) {
  MutexLock lock(mu_);
  dispatches_.push_back(at_ns);
}

std::vector<BackendSpan> SpanLog::TakeSpans() {
  MutexLock lock(mu_);
  return std::exchange(spans_, {});
}

std::vector<int64_t> SpanLog::TakeDispatches() {
  MutexLock lock(mu_);
  return std::exchange(dispatches_, {});
}

namespace {

/// Times one call and records it; returns the call's result unchanged.
template <typename Call>
auto Timed(SpanLog* log, int kind, const Point& q, std::vector<size_t> whos,
           Call&& call) {
  BackendSpan span;
  span.kind = kind;
  span.q_key = PointKey(q);
  span.whos = std::move(whos);
  span.start_ns = NowNs();
  auto result = call();
  span.end_ns = NowNs();
  span.ok = result.ok();
  log->Add(std::move(span));
  return result;
}

int Kind(serve::RequestKind kind) { return static_cast<int>(kind); }

class TracingSnapshot : public serve::QuerySnapshot {
 public:
  TracingSnapshot(std::shared_ptr<const serve::QuerySnapshot> inner,
                  SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  Result<std::vector<size_t>> TryReverseSkyline(const Point& q) const override {
    return Timed(log_, Kind(serve::RequestKind::kReverseSkyline), q, {},
                 [&] { return inner_->TryReverseSkyline(q); });
  }
  Result<WhyNotExplanation> TryExplain(size_t c, const Point& q) const override {
    return Timed(log_, Kind(serve::RequestKind::kExplain), q, {c},
                 [&] { return inner_->TryExplain(c, q); });
  }
  Result<MwpResult> TryModifyWhyNot(size_t c, const Point& q,
                                    Semantics semantics) const override {
    return Timed(log_, Kind(serve::RequestKind::kModifyWhyNot), q, {c},
                 [&] { return inner_->TryModifyWhyNot(c, q, semantics); });
  }
  Result<MqpResult> TryModifyQuery(size_t c, const Point& q,
                                   Semantics semantics) const override {
    return Timed(log_, Kind(serve::RequestKind::kModifyQuery), q, {c},
                 [&] { return inner_->TryModifyQuery(c, q, semantics); });
  }
  Result<std::shared_ptr<const SafeRegionResult>> TrySafeRegion(
      const Point& q) const override {
    return Timed(log_, Kind(serve::RequestKind::kSafeRegion), q, {},
                 [&] { return inner_->TrySafeRegion(q); });
  }
  Result<std::shared_ptr<const SafeRegionResult>> TryApproxSafeRegion(
      const Point& q) const override {
    return Timed(log_, kSpanApproxRegion, q, {},
                 [&] { return inner_->TryApproxSafeRegion(q); });
  }
  Result<MwqResult> TryModifyBoth(size_t c, const Point& q,
                                  Semantics semantics) const override {
    return Timed(log_, Kind(serve::RequestKind::kModifyBoth), q, {c},
                 [&] { return inner_->TryModifyBoth(c, q, semantics); });
  }
  Result<MwqResult> TryModifyBothApprox(size_t c, const Point& q,
                                        Semantics semantics) const override {
    return Timed(log_, Kind(serve::RequestKind::kModifyBothApprox), q, {c},
                 [&] { return inner_->TryModifyBothApprox(c, q, semantics); });
  }
  Result<std::vector<MwqResult>> TryModifyBothBatch(
      const std::vector<size_t>& whos, const Point& q, bool use_approx,
      Semantics semantics) const override {
    return Timed(log_, use_approx ? kSpanBatchApprox : kSpanBatchExact, q,
                 whos, [&] {
                   return inner_->TryModifyBothBatch(whos, q, use_approx,
                                                     semantics);
                 });
  }

 private:
  std::shared_ptr<const serve::QuerySnapshot> inner_;
  SpanLog* log_;
};

}  // namespace

TracingBackend::TracingBackend(std::shared_ptr<const serve::QueryBackend> inner,
                               std::shared_ptr<SpanLog> log)
    : inner_(std::move(inner)), log_(std::move(log)) {}

std::shared_ptr<const serve::QuerySnapshot> TracingBackend::Snapshot() const {
  log_->AddDispatch(NowNs());
  return std::make_shared<const TracingSnapshot>(inner_->Snapshot(),
                                                 log_.get());
}

bool WriteSpans(const std::string& path,
                const std::vector<BackendSpan>& spans) {
  std::string out;
  for (const BackendSpan& span : spans) {
    out += StrFormat(
        "{\"kind\": %d, \"q_key\": \"%016llx\", \"whos\": %zu, "
        "\"start_ns\": %lld, \"end_ns\": %lld, \"ok\": %s}\n",
        span.kind, static_cast<unsigned long long>(span.q_key),
        span.whos.size(), static_cast<long long>(span.start_ns),
        static_cast<long long>(span.end_ns), span.ok ? "true" : "false");
  }
  return storage::WriteStringToFile(path, out).ok();
}

}  // namespace perfbench
}  // namespace wnrs
