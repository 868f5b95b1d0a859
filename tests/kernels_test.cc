#include "geometry/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "geometry/dominance.h"
#include "geometry/kernels_scalar.h"
#include "geometry/point.h"
#include "geometry/rectangle.h"
#include "geometry/transform.h"

namespace wnrs {
namespace {

// Parity suite for the dispatched kernels: whatever backend the build
// resolved to (AVX2, NEON, or scalar) must agree bit for bit with the
// scalar references in scalar_kernels:: AND with the Point-based
// predicates in geometry/dominance.h / geometry/transform.h. The fuzz
// draws deliberately inject NaN, ±0, ±inf, and denormals — exactly the
// inputs where branchy and branch-free formulations historically
// diverged. CI runs this test in both the WNRS_SIMD=ON and =OFF builds.

constexpr size_t kDims[] = {1, 2, 3, 4, 5, 7};
constexpr size_t kCounts[] = {0, 1, 3, 7, 8, 9, 16, 17, 64, 65};
constexpr int kRounds = 6;

double DrawCoord(Rng& rng) {
  static const double kSpecial[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      1e300,
      -1e300,
  };
  if (rng.NextBool(0.25)) {
    return kSpecial[rng.NextUint64(sizeof(kSpecial) / sizeof(kSpecial[0]))];
  }
  return rng.NextDouble(-10.0, 10.0);
}

std::vector<double> DrawSpan(Rng& rng, size_t n) {
  std::vector<double> out(n);
  for (double& v : out) v = DrawCoord(rng);
  return out;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// SoA planes shaped exactly like the frozen PackedRTree slab: NaN-padded
// to KernelPad(n), lo plane j followed by hi plane j. `points_only`
// freezes hi == lo (degenerate boxes, the leaf-entry case).
struct SoaFixture {
  std::vector<double> slab;
  size_t stride = 0;
  size_t d = 0;

  SoaPlanes planes() const { return {slab.data(), stride, d}; }
  double lo(size_t k, size_t j) const { return slab[j * stride + k]; }
  double hi(size_t k, size_t j) const { return slab[(d + j) * stride + k]; }
  Point LoPoint(size_t k) const {
    std::vector<double> c(d);
    for (size_t j = 0; j < d; ++j) c[j] = lo(k, j);
    return Point(std::move(c));
  }
  Rectangle Rect(size_t k) const {
    std::vector<double> l(d);
    std::vector<double> h(d);
    for (size_t j = 0; j < d; ++j) {
      l[j] = lo(k, j);
      h[j] = hi(k, j);
    }
    return Rectangle(Point(std::move(l)), Point(std::move(h)));
  }
};

SoaFixture MakePlanes(Rng& rng, size_t n, size_t d, bool points_only) {
  SoaFixture f;
  f.d = d;
  f.stride = KernelPad(n);
  f.slab.assign(2 * d * f.stride,
                std::numeric_limits<double>::quiet_NaN());
  for (size_t k = 0; k < n; ++k) {
    for (size_t j = 0; j < d; ++j) {
      const double a = DrawCoord(rng);
      const double b = points_only ? a : DrawCoord(rng);
      f.slab[j * f.stride + k] = std::min(a, b);
      f.slab[(d + j) * f.stride + k] = std::max(a, b);
    }
  }
  return f;
}

TEST(KernelDispatchTest, BackendIsNamed) {
  const std::string backend = KernelBackend();
  EXPECT_TRUE(backend == "avx2" || backend == "neon" || backend == "scalar")
      << backend;
  // The scalar build (WNRS_SIMD=OFF or unsupported CPU) must report
  // "scalar" — the dispatcher has no other fallback.
  if (internal::SimdKernelOps() == nullptr) {
    EXPECT_EQ(backend, "scalar");
  } else {
    EXPECT_EQ(backend, internal::SimdKernelOps()->backend);
  }
}

TEST(KernelFuzzTest, DominatesBatchAgreesWithScalarAndPoint) {
  Rng rng(0xD0);
  for (size_t d : kDims) {
    for (size_t n : kCounts) {
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<double> pts = DrawSpan(rng, n * d);
        const std::vector<double> p = DrawSpan(rng, d);
        std::vector<unsigned char> got(KernelPad(n), 0xAA);
        std::vector<unsigned char> ref(KernelPad(n), 0xBB);
        DominatesBatch(pts.data(), n, d, p.data(), got.data());
        scalar_kernels::DominatesBatch(pts.data(), n, d, p.data(),
                                       ref.data());
        ASSERT_EQ(std::memcmp(got.data(), ref.data(), n), 0)
            << "d=" << d << " n=" << n;
        const Point pp(p);
        for (size_t i = 0; i < n; ++i) {
          const Point a(std::vector<double>(pts.begin() + i * d,
                                            pts.begin() + (i + 1) * d));
          ASSERT_EQ(got[i] != 0, Dominates(a, pp))
              << "d=" << d << " n=" << n << " i=" << i;
          ASSERT_EQ(got[i] != 0, DominatesSpan(pts.data() + i * d, p.data(), d));
        }
      }
    }
  }
}

TEST(KernelFuzzTest, DynamicallyDominatesBatchAgreesWithScalarAndPoint) {
  Rng rng(0xD1);
  for (size_t d : kDims) {
    for (size_t n : kCounts) {
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<double> pts = DrawSpan(rng, n * d);
        const std::vector<double> p = DrawSpan(rng, d);
        const std::vector<double> origin = DrawSpan(rng, d);
        std::vector<unsigned char> got(KernelPad(n), 0xAA);
        std::vector<unsigned char> ref(KernelPad(n), 0xBB);
        DynamicallyDominatesBatch(pts.data(), n, d, p.data(), origin.data(),
                                  got.data());
        scalar_kernels::DynamicallyDominatesBatch(pts.data(), n, d, p.data(),
                                                  origin.data(), ref.data());
        ASSERT_EQ(std::memcmp(got.data(), ref.data(), n), 0)
            << "d=" << d << " n=" << n;
        const Point pp(p);
        const Point po(origin);
        for (size_t i = 0; i < n; ++i) {
          const Point a(std::vector<double>(pts.begin() + i * d,
                                            pts.begin() + (i + 1) * d));
          ASSERT_EQ(got[i] != 0, DynamicallyDominates(a, pp, po))
              << "d=" << d << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelFuzzTest, DominatedByAnyAgreesWithFirstHitScan) {
  Rng rng(0xD2);
  for (size_t d : kDims) {
    for (size_t n : kCounts) {
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<double> pts = DrawSpan(rng, n * d);
        const std::vector<double> p = DrawSpan(rng, d);
        // Naive first-hit scan over the Point predicate.
        size_t first = n;
        const Point pp(p);
        for (size_t i = 0; i < n && first == n; ++i) {
          if (Dominates(Point(std::vector<double>(pts.begin() + i * d,
                                                  pts.begin() + (i + 1) * d)),
                        pp)) {
            first = i;
          }
        }
        ASSERT_EQ(FirstDominator(pts.data(), n, d, p.data()), first)
            << "d=" << d << " n=" << n;
        ASSERT_EQ(scalar_kernels::FirstDominator(pts.data(), n, d, p.data()),
                  first)
            << "d=" << d << " n=" << n;
        ASSERT_EQ(DominatedByAny(pts.data(), n, d, p.data()), first < n)
            << "d=" << d << " n=" << n;
        ASSERT_EQ(scalar_kernels::DominatedByAny(pts.data(), n, d, p.data()),
                  first < n)
            << "d=" << d << " n=" << n;
      }
    }
  }
}

// A single dominating point planted at every index of buffers whose
// lengths straddle the kScanBlock boundary: the tail handling after the
// last full block is where an off-by-one would hide.
TEST(KernelEdgeTest, DominatedByAnyScanBlockTail) {
  using kernel_detail::kScanBlock;
  const size_t d = 3;
  const std::vector<double> p = {0.5, 0.5, 0.5};
  for (size_t n : {kScanBlock - 1, kScanBlock, kScanBlock + 1,
                   2 * kScanBlock - 1, 2 * kScanBlock, 2 * kScanBlock + 1,
                   4 * kScanBlock + 5}) {
    for (size_t hit = 0; hit < n; ++hit) {
      // Every point ties with p (no strict dimension) except `hit`.
      std::vector<double> pts(n * d, 0.5);
      pts[hit * d + 1] = 0.25;
      EXPECT_TRUE(DominatedByAny(pts.data(), n, d, p.data()))
          << "n=" << n << " hit=" << hit;
      EXPECT_TRUE(scalar_kernels::DominatedByAny(pts.data(), n, d, p.data()));
      // A second dominator later in the buffer (often in the same block)
      // must not displace the first.
      pts[(n - 1) * d + 2] = 0.25;
      EXPECT_EQ(FirstDominator(pts.data(), n, d, p.data()), hit)
          << "n=" << n << " hit=" << hit;
      EXPECT_EQ(scalar_kernels::FirstDominator(pts.data(), n, d, p.data()),
                hit);
      pts[(n - 1) * d + 2] = 0.5;
      pts[hit * d + 1] = 0.5;
      EXPECT_FALSE(DominatedByAny(pts.data(), n, d, p.data())) << "n=" << n;
      EXPECT_FALSE(scalar_kernels::DominatedByAny(pts.data(), n, d,
                                                  p.data()));
    }
  }
}

TEST(KernelFuzzTest, BoxOverlapMaskAgreesWithRectangleIntersects) {
  Rng rng(0xD3);
  for (size_t d : kDims) {
    for (size_t n : kCounts) {
      for (int round = 0; round < kRounds; ++round) {
        const SoaFixture f = MakePlanes(rng, n, d, /*points_only=*/false);
        std::vector<double> wlo(d);
        std::vector<double> whi(d);
        for (size_t j = 0; j < d; ++j) {
          const double a = DrawCoord(rng);
          const double b = DrawCoord(rng);
          wlo[j] = std::min(a, b);
          whi[j] = std::max(a, b);
        }
        std::vector<unsigned char> got(KernelPad(n), 0xAA);
        std::vector<unsigned char> ref(KernelPad(n), 0xBB);
        BoxOverlapMaskSoa(f.planes(), 0, n, wlo.data(), whi.data(),
                          got.data());
        scalar_kernels::BoxOverlapMaskSoa(f.planes(), 0, n, wlo.data(),
                                          whi.data(), ref.data());
        ASSERT_EQ(std::memcmp(got.data(), ref.data(), n), 0)
            << "d=" << d << " n=" << n;
        const Rectangle window{Point(wlo), Point(whi)};
        for (size_t k = 0; k < n; ++k) {
          ASSERT_EQ(got[k] != 0, f.Rect(k).Intersects(window))
              << "d=" << d << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(KernelFuzzTest, MinDistCornerBatchMatchesRectToDistanceSpace) {
  Rng rng(0xD4);
  for (size_t d : kDims) {
    for (size_t n : kCounts) {
      for (int round = 0; round < kRounds; ++round) {
        const SoaFixture f = MakePlanes(rng, n, d, /*points_only=*/false);
        const std::vector<double> origin = DrawSpan(rng, d);
        const size_t cap = KernelPad(n);
        std::vector<double> got_c(d * cap, -1.0);
        std::vector<double> ref_c(d * cap, -2.0);
        std::vector<double> got_d(cap, -1.0);
        std::vector<double> ref_d(cap, -2.0);
        MinDistCornerBatchSoa(f.planes(), 0, n, origin.data(), got_c.data(),
                              cap, got_d.data());
        scalar_kernels::MinDistCornerBatchSoa(f.planes(), 0, n, origin.data(),
                                              ref_c.data(), cap,
                                              ref_d.data());
        const Point po(origin);
        for (size_t k = 0; k < n; ++k) {
          const Point expect = RectToDistanceSpace(f.Rect(k), po).lo();
          for (size_t j = 0; j < d; ++j) {
            ASSERT_TRUE(BitEqual(got_c[j * cap + k], ref_c[j * cap + k]))
                << "d=" << d << " n=" << n << " k=" << k << " j=" << j;
            ASSERT_TRUE(BitEqual(got_c[j * cap + k], expect[j]))
                << "d=" << d << " n=" << n << " k=" << k << " j=" << j;
          }
          ASSERT_TRUE(BitEqual(got_d[k], ref_d[k])) << "k=" << k;
          ASSERT_TRUE(BitEqual(got_d[k], expect.L1Norm()))
              << "d=" << d << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(KernelFuzzTest, MinDistCornerBatchIdentityMap) {
  Rng rng(0xD5);
  for (size_t d : kDims) {
    for (size_t n : kCounts) {
      const SoaFixture f = MakePlanes(rng, n, d, /*points_only=*/false);
      const size_t cap = KernelPad(n);
      std::vector<double> got_c(d * cap, -1.0);
      std::vector<double> ref_c(d * cap, -2.0);
      std::vector<double> got_d(cap, -1.0);
      std::vector<double> ref_d(cap, -2.0);
      MinDistCornerBatchSoa(f.planes(), 0, n, nullptr, got_c.data(), cap,
                            got_d.data());
      scalar_kernels::MinDistCornerBatchSoa(f.planes(), 0, n, nullptr,
                                            ref_c.data(), cap, ref_d.data());
      for (size_t k = 0; k < n; ++k) {
        for (size_t j = 0; j < d; ++j) {
          ASSERT_TRUE(BitEqual(got_c[j * cap + k], ref_c[j * cap + k]));
          ASSERT_TRUE(BitEqual(got_c[j * cap + k], f.lo(k, j)))
              << "d=" << d << " n=" << n << " k=" << k << " j=" << j;
        }
        ASSERT_TRUE(BitEqual(got_d[k], ref_d[k]));
        ASSERT_TRUE(BitEqual(got_d[k], f.LoPoint(k).L1Norm()))
            << "d=" << d << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(KernelFuzzTest, ToDistanceSpaceBatchMatchesPointTransform) {
  Rng rng(0xD6);
  for (size_t d : kDims) {
    for (size_t n : kCounts) {
      for (int round = 0; round < kRounds; ++round) {
        const SoaFixture f = MakePlanes(rng, n, d, /*points_only=*/true);
        const std::vector<double> origin = DrawSpan(rng, d);
        const size_t cap = KernelPad(n);
        std::vector<double> got_c(d * cap, -1.0);
        std::vector<double> ref_c(d * cap, -2.0);
        std::vector<double> got_d(cap, -1.0);
        std::vector<double> ref_d(cap, -2.0);
        ToDistanceSpaceBatchSoa(f.planes(), 0, n, origin.data(), got_c.data(),
                                cap, got_d.data());
        scalar_kernels::ToDistanceSpaceBatchSoa(f.planes(), 0, n,
                                                origin.data(), ref_c.data(),
                                                cap, ref_d.data());
        const Point po(origin);
        for (size_t k = 0; k < n; ++k) {
          const Point expect = ToDistanceSpace(f.LoPoint(k), po);
          for (size_t j = 0; j < d; ++j) {
            ASSERT_TRUE(BitEqual(got_c[j * cap + k], ref_c[j * cap + k]))
                << "d=" << d << " n=" << n << " k=" << k << " j=" << j;
            ASSERT_TRUE(BitEqual(got_c[j * cap + k], expect[j]))
                << "d=" << d << " n=" << n << " k=" << k << " j=" << j;
          }
          ASSERT_TRUE(BitEqual(got_d[k], ref_d[k]));
          ASSERT_TRUE(BitEqual(got_d[k], expect.L1Norm()))
              << "d=" << d << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(KernelFuzzTest, InWindowMaskAgreesWithScalarAndPoint) {
  Rng rng(0xD7);
  for (size_t d : kDims) {
    for (size_t n : kCounts) {
      for (int round = 0; round < kRounds; ++round) {
        const SoaFixture f = MakePlanes(rng, n, d, /*points_only=*/true);
        const std::vector<double> c = DrawSpan(rng, d);
        const std::vector<double> q = DrawSpan(rng, d);
        std::vector<unsigned char> got(KernelPad(n), 0xAA);
        std::vector<unsigned char> ref(KernelPad(n), 0xBB);
        InWindowMaskSoa(f.planes(), 0, n, c.data(), q.data(), got.data());
        scalar_kernels::InWindowMaskSoa(f.planes(), 0, n, c.data(), q.data(),
                                        ref.data());
        ASSERT_EQ(std::memcmp(got.data(), ref.data(), n), 0)
            << "d=" << d << " n=" << n;
        const Point pc(c);
        const Point pq(q);
        for (size_t k = 0; k < n; ++k) {
          ASSERT_EQ(got[k] != 0, InWindow(f.LoPoint(k), pc, pq))
              << "d=" << d << " n=" << n << " k=" << k;
          ASSERT_EQ(got[k] != 0,
                    InWindowSpan(f.slab.data() + k, f.stride, c.data(),
                                 q.data(), d));
        }
      }
    }
  }
}

TEST(KernelFuzzTest, SpanPrimitivesMatchPointImplementations) {
  Rng rng(0xD8);
  for (size_t d : kDims) {
    for (int round = 0; round < 64; ++round) {
      const std::vector<double> a = DrawSpan(rng, d);
      const std::vector<double> b = DrawSpan(rng, d);
      EXPECT_EQ(DominatesSpan(a.data(), b.data(), d),
                Dominates(Point(a), Point(b)));
      std::vector<double> t(d);
      ToDistanceSpaceSpan(a.data(), 1, b.data(), d, t.data());
      const Point expect = ToDistanceSpace(Point(a), Point(b));
      for (size_t j = 0; j < d; ++j) {
        EXPECT_TRUE(BitEqual(t[j], expect[j]));
      }
      EXPECT_TRUE(BitEqual(L1NormSpan(a.data(), d), Point(a).L1Norm()));
    }
  }
}

// Directed non-finite cases: a NaN coordinate makes a point incomparable
// in that dimension, so it can never dominate nor be dominated through
// it; ±0 are the same value for dominance purposes.
TEST(KernelEdgeTest, NanAndSignedZeroSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  EXPECT_FALSE(Dominates(Point({nan, 0.0}), Point({1.0, 1.0})));
  EXPECT_FALSE(Dominates(Point({1.0, 1.0}), Point({nan, 2.0})));
  EXPECT_EQ(CompareDominance(Point({nan, 0.0}), Point({1.0, 1.0})),
            DominanceRelation::kIncomparable);
  EXPECT_EQ(CompareDominance(Point({0.0, nan}), Point({0.0, nan})),
            DominanceRelation::kIncomparable);

  // ±0 tie: neither strict anywhere, so no dominance, and CompareDominance
  // sees equality (0.0 == -0.0 under IEEE).
  EXPECT_FALSE(Dominates(Point({-0.0, -0.0}), Point({0.0, 0.0})));
  EXPECT_FALSE(Dominates(Point({0.0, 0.0}), Point({-0.0, -0.0})));
  EXPECT_EQ(CompareDominance(Point({-0.0, 0.0}), Point({0.0, -0.0})),
            DominanceRelation::kEqual);

  // Infinities order normally: -inf dominates every finite point.
  EXPECT_TRUE(Dominates(Point({-inf, -inf}), Point({0.0, 0.0})));
  EXPECT_FALSE(Dominates(Point({inf, 0.0}), Point({1.0, 1.0})));

  // The batch kernels agree on the same directed inputs.
  const double pts[] = {nan, 0.0, -0.0, -0.0, -inf, -inf};
  const double p[] = {0.0, 0.0};
  unsigned char out[3] = {9, 9, 9};
  DominatesBatch(pts, 3, 2, p, out);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 1);
  EXPECT_TRUE(DominatedByAny(pts, 3, 2, p));
  EXPECT_FALSE(DominatedByAny(pts, 2, 2, p));
  EXPECT_EQ(FirstDominator(pts, 3, 2, p), 2u);
  EXPECT_EQ(FirstDominator(pts, 2, 2, p), 2u);
}

// Dynamic dominance around a NaN origin coordinate: every transformed
// coordinate is NaN, so nothing dominates anything.
TEST(KernelEdgeTest, NanOriginNeverDynamicallyDominates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Point origin({nan, 0.0});
  EXPECT_FALSE(
      DynamicallyDominates(Point({0.0, 0.0}), Point({5.0, 5.0}), origin));
  const double pts[] = {0.0, 0.0};
  const double p[] = {5.0, 5.0};
  const double o[] = {nan, 0.0};
  unsigned char out[1] = {9};
  DynamicallyDominatesBatch(pts, 1, 2, p, o, out);
  EXPECT_EQ(out[0], 0);
}

// n == 0 and d edge dims: kernels must be well-defined no-ops.
TEST(KernelEdgeTest, EmptyInputsAreNoOps) {
  const double p[] = {1.0};
  EXPECT_FALSE(DominatedByAny(nullptr, 0, 1, p));
  EXPECT_EQ(FirstDominator(nullptr, 0, 1, p), 0u);
  unsigned char out[KernelPad(0)];
  std::memset(out, 0xCC, sizeof(out));
  DominatesBatch(nullptr, 0, 1, p, out);
  SoaFixture f;
  f.d = 1;
  f.stride = KernelPad(0);
  f.slab.assign(2 * f.stride, std::numeric_limits<double>::quiet_NaN());
  BoxOverlapMaskSoa(f.planes(), 0, 0, p, p, out);
  InWindowMaskSoa(f.planes(), 0, 0, p, p, out);
  std::vector<double> c(f.stride);
  std::vector<double> dist(f.stride);
  MinDistCornerBatchSoa(f.planes(), 0, 0, nullptr, c.data(), f.stride,
                        dist.data());
  ToDistanceSpaceBatchSoa(f.planes(), 0, 0, p, c.data(), f.stride,
                          dist.data());
}

// Node-interior ranges: kernels must honor `first` and not assume the
// scan starts at entry 0 (nodes occupy interior index ranges of the
// packed slab).
TEST(KernelFuzzTest, InteriorRangesMatchZeroBasedScans) {
  Rng rng(0xD9);
  const size_t d = 3;
  const size_t total = 40;
  const SoaFixture f = MakePlanes(rng, total, d, /*points_only=*/false);
  const std::vector<double> origin = DrawSpan(rng, d);
  for (size_t first : {0u, 1u, 7u, 13u}) {
    for (size_t count : {0u, 1u, 5u, 11u}) {
      ASSERT_LE(first + count, total);
      const size_t cap = KernelPad(count);
      std::vector<double> got_c(d * cap);
      std::vector<double> got_d(cap);
      MinDistCornerBatchSoa(f.planes(), first, count, origin.data(),
                            got_c.data(), cap, got_d.data());
      const Point po(origin);
      for (size_t k = 0; k < count; ++k) {
        const Point expect = RectToDistanceSpace(f.Rect(first + k), po).lo();
        for (size_t j = 0; j < d; ++j) {
          ASSERT_TRUE(BitEqual(got_c[j * cap + k], expect[j]))
              << "first=" << first << " k=" << k << " j=" << j;
        }
        ASSERT_TRUE(BitEqual(got_d[k], expect.L1Norm()));
      }
    }
  }
}

}  // namespace
}  // namespace wnrs
