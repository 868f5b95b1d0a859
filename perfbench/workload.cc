#include "workload.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "stats.h"

namespace wnrs {
namespace perfbench {

namespace {

using serve::RequestKind;

/// Uniform double in [0, 1) from 53 bits of `x`.
double Unit(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Seeded permutation of 0..k-1 for block `block` of a stream lane.
std::vector<size_t> BlockPermutation(uint64_t lane, size_t block, size_t k,
                                     uint64_t salt) {
  std::vector<size_t> perm(k);
  for (size_t j = 0; j < k; ++j) perm[j] = j;
  uint64_t r = SplitMix64(lane ^ SplitMix64(salt + block));
  for (size_t j = k; j > 1; --j) {
    r = SplitMix64(r);
    std::swap(perm[j - 1], perm[r % j]);
  }
  return perm;
}

/// The kind of request `i`. Each group is permuted per block, so no kind
/// always follows the same one: at a fixed send interval that would tie a
/// kind's queue wait to its predecessor's cost.
RequestKind KindOf(const Mix& mix, uint64_t lane, size_t i) {
  const size_t k = mix.size();
  const size_t block = i / k;
  const size_t pos = i % k;
  if (pos < mix.slow.size()) {
    return mix.slow[BlockPermutation(lane, block, mix.slow.size(), 0x5107ull)[pos]];
  }
  const size_t f = pos - mix.slow.size();
  return mix.fast[BlockPermutation(lane, block, mix.fast.size(), 0xfa57ull)[f]];
}

bool NeedsCustomer(RequestKind kind) {
  return kind != RequestKind::kReverseSkyline &&
         kind != RequestKind::kSafeRegion;
}

}  // namespace

bool Mix::Contains(RequestKind kind) const {
  return std::find(slow.begin(), slow.end(), kind) != slow.end() ||
         std::find(fast.begin(), fast.end(), kind) != fast.end();
}

std::vector<double> GeometricLadder(double first, size_t rungs) {
  std::vector<double> out;
  for (size_t i = 0; i < rungs; ++i) {
    out.push_back(std::round(first * std::pow(1.06, static_cast<double>(i))));
  }
  return out;
}

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  // Five slow slots of eight put the overall median at the slow kinds' 20th
  // percentile, where samples are dense. With fewer it fell into the sparse
  // valley between the sub-millisecond kinds (RSL, MWP, MQP) and the slow
  // kinds' low tail. Explain and MWQ take two slots each: Explain's answer
  // time spreads evenly from 0 to 20 ms, so its p50 needs the most samples,
  // and MWQ is the paper's headline question.
  s.mix.slow = {RequestKind::kExplain, RequestKind::kModifyBoth,
                RequestKind::kSafeRegion, RequestKind::kModifyBoth,
                RequestKind::kExplain};
  s.mix.fast = {RequestKind::kReverseSkyline, RequestKind::kModifyWhyNot,
                RequestKind::kModifyQuery};
  // Both workloads offer the same rates, so they differ only in src/shard.
  // lo is about 13% and hi about 22% of the single engine's saturation rate
  // on a 4-vCPU host (see README.md for why hi is not 60%).
  s.lo_qps = 50;
  s.hi_qps = 80;
  // Each limit is about four times the workload's hi p99.
  if (name == "cold-mix") {
    s.ladder_qps = GeometricLadder(100, 31);
    s.p99_limit_ms = 80;
    s.write_pairs = 80;
  } else if (name == "sharded-mix") {
    s.sharded = true;
    s.ladder_qps = GeometricLadder(150, 31);
    s.p99_limit_ms = 80;
    // Sharded writes re-freeze one tile, about a quarter of a single
    // engine's write.
    s.write_pairs = 200;
  } else {
    return false;
  }
  *spec = std::move(s);
  return true;
}

std::vector<RequestKind> CoverageKinds(const WorkloadSpec& spec) {
  std::vector<RequestKind> out;
  for (const RequestKind kind : kAllKinds) {
    if (!spec.mix.Contains(kind)) out.push_back(kind);
  }
  return out;
}

const char* KindLabel(RequestKind kind) {
  switch (kind) {
    case RequestKind::kReverseSkyline: return "rsl";
    case RequestKind::kExplain: return "explain";
    case RequestKind::kModifyWhyNot: return "mwp";
    case RequestKind::kModifyQuery: return "mqp";
    case RequestKind::kSafeRegion: return "sr";
    case RequestKind::kModifyBoth: return "mwq";
    case RequestKind::kModifyBothApprox: return "mwq_approx";
  }
  return "unknown";
}

StreamGenerator::StreamGenerator(uint64_t seed, const WhyNotEngine* engine,
                                 size_t threads)
    : seed_(SplitMix64(seed ^ Fnv1a("cold-mix"))),
      engine_(engine),
      threads_(std::max<size_t>(1, threads)) {}

Point StreamGenerator::PerturbedDataPoint(uint64_t rng_seed) const {
  const Dataset& products = engine_->products();
  const Rectangle& universe = engine_->universe();
  const Point& base = products.points[rng_seed % products.size()];
  Point q = base;
  uint64_t r = rng_seed;
  for (size_t d = 0; d < q.dims(); ++d) {
    r = SplitMix64(r);
    const double range = universe.hi()[d] - universe.lo()[d];
    q[d] = base[d] + (2.0 * Unit(r) - 1.0) * 0.01 * range;
  }
  return q;
}

size_t StreamGenerator::WhyNotCustomer(const std::vector<size_t>& rsl,
                                       uint64_t rng_seed) const {
  const size_t n = engine_->customers().size();
  uint64_t r = rng_seed;
  while (true) {
    r = SplitMix64(r);
    const size_t c = r % n;
    if (!std::binary_search(rsl.begin(), rsl.end(), c)) return c;
  }
}

std::vector<serve::WhyNotRequest> StreamGenerator::Make(uint64_t phase,
                                                        size_t count,
                                                        const Mix& mix) const {
  std::vector<serve::WhyNotRequest> out(count);
  const EngineSnapshot snapshot = engine_->Snapshot();
  const uint64_t lane = SplitMix64(seed_ ^ SplitMix64(phase));
  auto fill = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const uint64_t rs = SplitMix64(lane ^ SplitMix64(i + 1));
      serve::WhyNotRequest& request = out[i];
      request.kind = KindOf(mix, lane, i);
      request.timeout = kRequestTimeout;
      request.q = PerturbedDataPoint(rs);
      if (NeedsCustomer(request.kind)) {
        request.c =
            WhyNotCustomer(snapshot.TryReverseSkyline(request.q).value(), rs);
      }
    }
  };
  std::vector<std::thread> workers;
  const size_t per = (count + threads_ - 1) / threads_;
  for (size_t t = 0; t < threads_; ++t) {
    const size_t begin = t * per;
    const size_t end = std::min(count, begin + per);
    if (begin >= end) break;
    workers.emplace_back(fill, begin, end);
  }
  for (std::thread& w : workers) w.join();
  return out;
}

std::vector<Point> StreamGenerator::WritePoints(size_t count) const {
  std::vector<Point> out;
  const uint64_t lane = SplitMix64(seed_ ^ SplitMix64(kPhaseWrites));
  const Rectangle& universe = engine_->universe();
  for (size_t i = 0; i < count; ++i) {
    Point p = PerturbedDataPoint(SplitMix64(lane ^ SplitMix64(i + 1)));
    // Strictly inside the universe: a point outside would widen it, and
    // with it the cost model, for good (removal does not shrink it back).
    for (size_t d = 0; d < p.dims(); ++d) {
      const double lo = universe.lo()[d];
      const double hi = universe.hi()[d];
      const double margin = 0.01 * (hi - lo);
      p[d] = std::clamp(p[d], lo + margin, hi - margin);
    }
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace perfbench
}  // namespace wnrs
