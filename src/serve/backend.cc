#include "serve/backend.h"

#include <utility>

#include "common/logging.h"

namespace wnrs {
namespace serve {

namespace {

/// QuerySnapshot over a QuerySession: pure delegation. The session pins
/// the engine state, so the engine may mutate (or even be destroyed, for
/// states obtained earlier) without affecting this view.
class SessionQuerySnapshot final : public QuerySnapshot {
 public:
  explicit SessionQuerySnapshot(QuerySession session)
      : session_(std::move(session)) {}

  Result<std::vector<size_t>> TryReverseSkyline(const Point& q) const override {
    return session_.TryReverseSkyline(q);
  }
  Result<WhyNotExplanation> TryExplain(size_t c, const Point& q) const override {
    return session_.TryExplain(c, q);
  }
  Result<MwpResult> TryModifyWhyNot(size_t c, const Point& q,
                                    Semantics semantics) const override {
    return session_.TryModifyWhyNot(c, q, semantics);
  }
  Result<MqpResult> TryModifyQuery(size_t c, const Point& q,
                                   Semantics semantics) const override {
    return session_.TryModifyQuery(c, q, semantics);
  }
  Result<std::shared_ptr<const SafeRegionResult>> TrySafeRegion(
      const Point& q) const override {
    return session_.TrySafeRegion(q);
  }
  Result<std::shared_ptr<const SafeRegionResult>> TryApproxSafeRegion(
      const Point& q) const override {
    return session_.TryApproxSafeRegion(q);
  }
  Result<MwqResult> TryModifyBoth(size_t c, const Point& q,
                                  Semantics semantics) const override {
    return session_.TryModifyBoth(c, q, semantics);
  }
  Result<MwqResult> TryModifyBothApprox(size_t c, const Point& q,
                                        Semantics semantics) const override {
    return session_.TryModifyBothApprox(c, q, semantics);
  }
  Result<std::vector<MwqResult>> TryModifyBothBatch(
      const std::vector<size_t>& whos, const Point& q, bool use_approx,
      Semantics semantics) const override {
    return session_.TryModifyBothBatch(whos, q, use_approx, semantics);
  }

 private:
  QuerySession session_;
};

}  // namespace

std::shared_ptr<const QuerySnapshot> MakeQuerySnapshot(QuerySession session) {
  return std::make_shared<const SessionQuerySnapshot>(std::move(session));
}

EngineBackend::EngineBackend(const WhyNotEngine* engine) : engine_(engine) {
  WNRS_CHECK(engine_ != nullptr);
}

std::shared_ptr<const QuerySnapshot> EngineBackend::Snapshot() const {
  return MakeQuerySnapshot(engine_->Snapshot());
}

}  // namespace serve
}  // namespace wnrs
