#ifndef WNRS_PERFBENCH_WORKLOAD_H_
#define WNRS_PERFBENCH_WORKLOAD_H_

// The serving workloads and their seeded request streams.
//
// Streams are generated against a separate engine instance (never the one
// being served), so the served engine starts every run with empty caches.
// Request i of phase P is a pure function of (seed, P, i): the generator
// may run in parallel and the same seed always yields the same stream.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "serve/api.h"

namespace wnrs {
namespace perfbench {

/// A request mix. Each block of requests takes every slow slot, then every
/// fast slot, each group in a seeded order; a kind may take several slots.
struct Mix {
  /// Multi-millisecond kinds.
  std::vector<serve::RequestKind> slow;
  /// Sub-millisecond kinds. Sent back to back after the slow group, so only
  /// the first of them can queue behind a slow answer.
  std::vector<serve::RequestKind> fast;

  size_t size() const { return slow.size() + fast.size(); }
  bool Contains(serve::RequestKind kind) const;
};

/// One workload: its traffic and its frozen, absolute load settings.
struct WorkloadSpec {
  std::string name;
  Mix mix;
  /// Serve through a 4-tile ShardedEngine instead of the single engine.
  bool sharded = false;
  double lo_qps = 0.0;
  double hi_qps = 0.0;
  /// Ascending offered rates the max_qps search walks.
  std::vector<double> ladder_qps;
  /// A ladder rung passes only with its p99 at or under this.
  double p99_limit_ms = 0.0;
  /// Timed add/remove pairs after the reads.
  size_t write_pairs = 0;
};

/// The spec for `name`, or false if no such workload exists.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

/// `rungs` rates from `first` upward in 6% steps, each rounded to a whole
/// qps.
std::vector<double> GeometricLadder(double first, size_t rungs);

/// Read kinds outside the workload's mix; the coverage phase runs these so
/// every per-kind metric is measured on every workload.
std::vector<serve::RequestKind> CoverageKinds(const WorkloadSpec& spec);

/// Short metric label of a kind ("rsl", "explain", "mwp", "mqp", "sr",
/// "mwq", "mwq_approx").
const char* KindLabel(serve::RequestKind kind);

inline constexpr serve::RequestKind kAllKinds[] = {
    serve::RequestKind::kReverseSkyline, serve::RequestKind::kExplain,
    serve::RequestKind::kModifyWhyNot,   serve::RequestKind::kModifyQuery,
    serve::RequestKind::kSafeRegion,     serve::RequestKind::kModifyBoth,
    serve::RequestKind::kModifyBothApprox,
};

/// Relative deadline of every request.
inline constexpr std::chrono::milliseconds kRequestTimeout{1500};

/// Stream phases; each draws its requests from its own seed lane.
enum Phase : uint64_t {
  kPhaseWarmup = 1,
  kPhaseLo = 2,
  kPhaseHi = 3,
  kPhaseCoverage = 4,
  kPhaseWrites = 5,
  kPhaseLadder = 100,  ///< + rung index.
};

/// Generates request streams for one seed. Every workload gets the same
/// stream for the same seed, so sharded-mix and cold-mix differ only in the
/// engine that serves it.
class StreamGenerator {
 public:
  /// `engine` is the generator's own engine instance (not the served one).
  StreamGenerator(uint64_t seed, const WhyNotEngine* engine, size_t threads);

  /// `count` requests of `phase` over `mix`. Each has a fresh q (a seeded
  /// perturbed data point) and, where the kind asks a why-not question, a
  /// customer outside RSL(q).
  std::vector<serve::WhyNotRequest> Make(uint64_t phase, size_t count,
                                         const Mix& mix) const;

  /// Points for the add/remove write pairs, strictly inside the universe.
  std::vector<Point> WritePoints(size_t count) const;

 private:
  Point PerturbedDataPoint(uint64_t rng_seed) const;
  /// A customer outside RSL(q) (`rsl` sorted ascending).
  size_t WhyNotCustomer(const std::vector<size_t>& rsl, uint64_t rng_seed) const;

  const uint64_t seed_;
  const WhyNotEngine* engine_;
  const size_t threads_;
};

}  // namespace perfbench
}  // namespace wnrs

#endif  // WNRS_PERFBENCH_WORKLOAD_H_
