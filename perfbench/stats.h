#ifndef WNRS_PERFBENCH_STATS_H_
#define WNRS_PERFBENCH_STATS_H_

// Pure arithmetic of the serving benchmark, kept apart from the engine so
// perfbench_selftest can pin it: the percentile rules, the ladder walk, the
// self-time (interval cover) computation, and the stream digest.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace wnrs {
namespace perfbench {

/// Nearest-rank percentile of `values` (need not be sorted): the smallest
/// sample such that at least p% of the samples are <= it. 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Samples strictly above the nearest-rank p-th percentile of `n` samples:
/// the count the "at least ten samples beyond it" rule is checked on.
size_t SamplesBeyond(size_t n, double p);

/// Median of `values`, 0 when empty (the mean of the middle pair for an
/// even count).
double Median(std::vector<double> values);

/// Robust tail percentile of a timed phase: the phase's samples (in send
/// order) are cut into `windows` equal runs of consecutive samples, and the
/// result is the p-th percentile of the samples left after dropping the
/// window with the highest median. It keeps enough samples beyond it but is
/// not set by one host stall; a slower program slows every window.
double TrimmedPercentile(const std::vector<double>& in_order, size_t windows,
                         double p);

/// Number of samples TrimmedPercentile pools.
size_t TrimmedCount(size_t n, size_t windows);

/// Walks a fixed, ascending ladder of offered rates by binary search,
/// assuming pass/fail is monotone in the rate: rungs below the first
/// failure pass. `probe(i)` runs rung i and says whether it met the limit.
/// Returns the index of the highest passing rung, or -1 if even rung 0
/// fails. `probed` (optional) receives the visited indices in order.
int WalkLadder(size_t rungs, const std::function<bool(size_t)>& probe,
               std::vector<size_t>* probed = nullptr);

/// True iff the latency of the last quarter of a rung's requests (in send
/// order) shows a backlog that keeps growing: its median exceeds twice the
/// first quarter's median plus `slack_ms`.
bool GrowingBacklog(const std::vector<double>& latencies_in_send_order,
                    double slack_ms);

/// A closed time interval on one clock, in nanoseconds.
using Interval = std::pair<int64_t, int64_t>;

/// Self time of a span: its duration minus the part of it that the union
/// of `children` covers (children are clipped to the span; overlaps count
/// once). Never negative.
int64_t SelfTime(Interval span, std::vector<Interval> children);

/// Length of the union of `intervals` (overlaps counted once).
int64_t UnionLength(std::vector<Interval> intervals);

/// 64-bit FNV-1a, chained through `seed` so a stream of frames digests
/// incrementally.
uint64_t Fnv1a(std::string_view bytes, uint64_t seed = 14695981039346656037ull);

/// SplitMix64 step: the per-request seed derivation of the stream
/// generator (order-independent, so streams generate in parallel).
uint64_t SplitMix64(uint64_t x);

}  // namespace perfbench
}  // namespace wnrs

#endif  // WNRS_PERFBENCH_STATS_H_
