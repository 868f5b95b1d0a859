// Self-tests of the benchmark's own arithmetic: the percentile rule, the
// ladder walk, and the self-time computation. run.py runs this binary
// before every benchmark run and refuses to report if it fails.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

using namespace wnrs::perfbench;

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED line %d: %s\n", line, what);
    ++g_failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT(Percentile(v, 50) == 50);
  EXPECT(Percentile(v, 99) == 99);
  EXPECT(Percentile(v, 100) == 100);
  EXPECT(Percentile(v, 0) == 1);
  EXPECT(Percentile({}, 50) == 0);
  EXPECT(Percentile({7}, 99) == 7);
  // 1000 samples: p99 is rank 990, so exactly 10 samples lie beyond it.
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(SamplesBeyond(999, 99) == 9);
  EXPECT(SamplesBeyond(0, 99) == 0);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
}

void TestWindows() {
  // 5 windows of 10; window 2 is a stall (every sample 100).
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 10; ++i) v.push_back(w == 2 ? 100.0 : i);
  }
  // Dropping the stalled window leaves 40 samples of 1..10.
  EXPECT(TrimmedPercentile(v, 5, 99) == 10);
  EXPECT(Percentile(v, 99) == 100);
  EXPECT(TrimmedCount(50, 5) == 40);
  EXPECT(TrimmedCount(1000, 5) == 800);
  // Fewer samples than windows: one sample per window, the highest dropped.
  EXPECT(TrimmedPercentile({3, 1, 2}, 5, 99) == 2);
  EXPECT(TrimmedPercentile({7}, 5, 99) == 7);
  EXPECT(TrimmedPercentile({}, 5, 99) == 0);
}

void TestLadder() {
  // Monotone ladder: rungs 0..6 pass, 7.. fail.
  std::vector<size_t> probed;
  EXPECT(WalkLadder(20, [](size_t i) { return i <= 6; }, &probed) == 6);
  EXPECT(probed.size() <= 5);  // ceil(log2(21))
  EXPECT(WalkLadder(20, [](size_t) { return true; }) == 19);
  EXPECT(WalkLadder(20, [](size_t) { return false; }) == -1);
  EXPECT(WalkLadder(1, [](size_t) { return true; }) == 0);
  EXPECT(WalkLadder(0, [](size_t) { return true; }) == -1);
  // The walk probes fixed indices only: the same outcome gives the same
  // visit order.
  std::vector<size_t> again;
  WalkLadder(20, [](size_t i) { return i <= 6; }, &again);
  EXPECT(again == probed);
  std::vector<double> flat(100, 5.0);
  EXPECT(!GrowingBacklog(flat, 1.0));
  std::vector<double> growing;
  for (int i = 0; i < 100; ++i) growing.push_back(1.0 + i);
  EXPECT(GrowingBacklog(growing, 1.0));
}

void TestSelfTime() {
  // Span [0, 100] with children [10, 30] and [20, 50]: covered 40.
  EXPECT(SelfTime({0, 100}, {{10, 30}, {20, 50}}) == 60);
  // Children are clipped to the span.
  EXPECT(SelfTime({0, 100}, {{-50, 10}, {90, 200}}) == 80);
  // Disjoint children add up; nested ones count once.
  EXPECT(SelfTime({0, 100}, {{0, 10}, {20, 30}, {22, 28}}) == 80);
  // Full cover leaves nothing, never less than zero.
  EXPECT(SelfTime({0, 100}, {{0, 100}, {0, 100}}) == 0);
  EXPECT(SelfTime({5, 5}, {}) == 0);
  EXPECT(UnionLength({{0, 10}, {5, 15}, {20, 25}}) == 20);
  EXPECT(UnionLength({}) == 0);
}

void TestDigest() {
  EXPECT(Fnv1a("") == 14695981039346656037ull);
  EXPECT(Fnv1a("a") == 0xaf63dc4c8601ec8cull);
  EXPECT(Fnv1a("b", Fnv1a("a")) == Fnv1a("ab"));
  EXPECT(SplitMix64(1) != SplitMix64(2));
}

}  // namespace

int main() {
  TestPercentile();
  TestWindows();
  TestLadder();
  TestSelfTime();
  TestDigest();
  if (g_failures != 0) return 1;
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
