#include "geometry/kernels.h"

// Explicit SIMD implementations of the dispatched kernels. This TU is
// always part of the build; the vector code inside is compiled only when
// CMake defines WNRS_SIMD_KERNELS (the WNRS_SIMD=ON leg), in which case
// the TU is built with the ISA flags (-mavx2 on x86-64; NEON is baseline
// on AArch64) and -ffp-contract=off so the compiler cannot fuse the
// kernels' adds and subs into FMAs that would round differently from the
// scalar reference.
//
// Bit-identity discipline (checked by tests/kernels_test.cc): vectorize
// across *entries* — four points or boxes per group — and loop the
// dimensions in ascending order inside, so each lane performs exactly
// the scalar per-point operation sequence. Comparisons are ordered-quiet
// (simd.h), min is MinStd (std::min semantics, not the ISA min), abs is
// a sign-bit clear, and tails fall through to the same one-point helpers
// the scalar reference inlines (geometry/kernels_scalar.h).

#if defined(WNRS_SIMD_KERNELS)

#include <bit>
#include <cmath>

#include "geometry/kernels_scalar.h"
#include "geometry/simd.h"

#endif  // defined(WNRS_SIMD_KERNELS)

#if defined(WNRS_SIMD_KERNELS) && !defined(WNRS_SIMD_BACKEND_SCALAR)

namespace wnrs {
namespace {

using kernel_detail::DominatesOne;
using kernel_detail::DynamicallyDominatesOne;
using kernel_detail::kScanBlock;

/// Spreads the low four mask bits into 0/1 bytes.
inline void StoreMaskBytes(unsigned bits, unsigned char* out) {
  out[0] = static_cast<unsigned char>(bits & 1u);
  out[1] = static_cast<unsigned char>((bits >> 1) & 1u);
  out[2] = static_cast<unsigned char>((bits >> 2) & 1u);
  out[3] = static_cast<unsigned char>((bits >> 3) & 1u);
}

/// Dominance masks for four dense points starting at `base` against `p`.
inline unsigned DominatesGroup(const double* base, size_t d,
                               const double* p) {
  simd::Mask4d all_le = simd::TrueMask();
  simd::Mask4d any_lt = simd::FalseMask();
  for (size_t j = 0; j < d; ++j) {
    const simd::Vec4d a = simd::LoadStride(base + j, d);
    const simd::Vec4d b = simd::Set1(p[j]);
    all_le = simd::And(all_le, simd::CmpLE(a, b));
    any_lt = simd::Or(any_lt, simd::CmpLT(a, b));
  }
  return simd::MoveMask(simd::And(all_le, any_lt));
}

inline unsigned DynDominatesGroup(const double* base, size_t d,
                                  const double* p, const double* origin) {
  simd::Mask4d all_le = simd::TrueMask();
  simd::Mask4d any_lt = simd::FalseMask();
  for (size_t j = 0; j < d; ++j) {
    const simd::Vec4d oj = simd::Set1(origin[j]);
    const simd::Vec4d da =
        simd::Abs(simd::Sub(oj, simd::LoadStride(base + j, d)));
    const simd::Vec4d db = simd::Set1(std::fabs(origin[j] - p[j]));
    all_le = simd::And(all_le, simd::CmpLE(da, db));
    any_lt = simd::Or(any_lt, simd::CmpLT(da, db));
  }
  return simd::MoveMask(simd::And(all_le, any_lt));
}

void DominatesBatchSimd(const double* points, size_t n, size_t d,
                        const double* p, unsigned char* out) {
  size_t i = 0;
  for (; i + simd::kWidth <= n; i += simd::kWidth) {
    StoreMaskBytes(DominatesGroup(points + i * d, d, p), out + i);
  }
  for (; i < n; ++i) {
    out[i] = DominatesOne<0>(points + i * d, p, d);
  }
}

void DynamicallyDominatesBatchSimd(const double* points, size_t n, size_t d,
                                   const double* p, const double* origin,
                                   unsigned char* out) {
  size_t i = 0;
  for (; i + simd::kWidth <= n; i += simd::kWidth) {
    StoreMaskBytes(DynDominatesGroup(points + i * d, d, p, origin), out + i);
  }
  for (; i < n; ++i) {
    out[i] = DynamicallyDominatesOne<0>(points + i * d, p, origin, d);
  }
}

size_t FirstDominatorSimd(const double* points, size_t n, size_t d,
                          const double* p) {
  static_assert(kScanBlock % simd::kWidth == 0,
                "scan blocks must split into whole vector groups");
  size_t i = 0;
  // Same blocking as the scalar reference: a hit is checked once per
  // kScanBlock entries, and the block's mask (lane k of group g at bit
  // g + k) names the same first dominator.
  for (; i + kScanBlock <= n; i += kScanBlock) {
    unsigned mask = 0;
    for (size_t g = 0; g < kScanBlock; g += simd::kWidth) {
      mask |= DominatesGroup(points + (i + g) * d, d, p) << g;
    }
    if (mask != 0) return i + static_cast<size_t>(std::countr_zero(mask));
  }
  for (; i < n; ++i) {
    if (DominatesOne<0>(points + i * d, p, d) != 0) return i;
  }
  return n;
}

void BoxOverlapMaskSoaSimd(const SoaPlanes& planes, size_t first,
                           size_t count, const double* wlo,
                           const double* whi, unsigned char* out) {
  for (size_t k = 0; k < count; k += simd::kWidth) {
    simd::Mask4d acc = simd::TrueMask();
    for (size_t j = 0; j < planes.d; ++j) {
      const simd::Vec4d lo = simd::LoadU(planes.lo(j) + first + k);
      const simd::Vec4d hi = simd::LoadU(planes.hi(j) + first + k);
      // Rectangle::Intersects' negated exclusion test, so NaN
      // conservatively intersects (see kernels.h).
      const simd::Mask4d excluded =
          simd::Or(simd::CmpLT(hi, simd::Set1(wlo[j])),
                   simd::CmpLT(simd::Set1(whi[j]), lo));
      acc = simd::AndNot(excluded, acc);
    }
    StoreMaskBytes(simd::MoveMask(acc), out + k);
  }
}

void MinDistCornerBatchSoaSimd(const SoaPlanes& planes, size_t first,
                               size_t count, const double* origin,
                               double* corners, size_t corner_stride,
                               double* dist) {
  for (size_t k = 0; k < count; k += simd::kWidth) {
    simd::Vec4d sum = simd::Zero();
    for (size_t j = 0; j < planes.d; ++j) {
      const simd::Vec4d lo = simd::LoadU(planes.lo(j) + first + k);
      simd::Vec4d corner;
      if (origin == nullptr) {
        corner = lo;
        sum = simd::Add(sum, simd::Abs(lo));
      } else {
        const simd::Vec4d hi = simd::LoadU(planes.hi(j) + first + k);
        const simd::Vec4d oj = simd::Set1(origin[j]);
        const simd::Vec4d dlo = simd::Sub(oj, lo);
        const simd::Vec4d dhi = simd::Sub(oj, hi);
        const simd::Mask4d inside =
            simd::And(simd::CmpGE(dlo, simd::Zero()),
                      simd::CmpLE(dhi, simd::Zero()));
        corner = simd::Select(
            inside, simd::Zero(),
            simd::MinStd(simd::Abs(dlo), simd::Abs(dhi)));
        sum = simd::Add(sum, corner);
      }
      simd::StoreU(corners + j * corner_stride + k, corner);
    }
    simd::StoreU(dist + k, sum);
  }
}

void ToDistanceSpaceBatchSoaSimd(const SoaPlanes& planes, size_t first,
                                 size_t count, const double* origin,
                                 double* out, size_t out_stride,
                                 double* dist) {
  for (size_t k = 0; k < count; k += simd::kWidth) {
    simd::Vec4d sum = simd::Zero();
    for (size_t j = 0; j < planes.d; ++j) {
      const simd::Vec4d lo = simd::LoadU(planes.lo(j) + first + k);
      simd::Vec4d t;
      if (origin == nullptr) {
        t = lo;
        sum = simd::Add(sum, simd::Abs(lo));
      } else {
        t = simd::Abs(simd::Sub(simd::Set1(origin[j]), lo));
        sum = simd::Add(sum, t);
      }
      simd::StoreU(out + j * out_stride + k, t);
    }
    simd::StoreU(dist + k, sum);
  }
}

void InWindowMaskSoaSimd(const SoaPlanes& planes, size_t first, size_t count,
                         const double* c, const double* q,
                         unsigned char* out) {
  for (size_t k = 0; k < count; k += simd::kWidth) {
    simd::Mask4d all_le = simd::TrueMask();
    simd::Mask4d any_lt = simd::FalseMask();
    for (size_t j = 0; j < planes.d; ++j) {
      const simd::Vec4d cj = simd::Set1(c[j]);
      const simd::Vec4d dp =
          simd::Abs(simd::Sub(cj, simd::LoadU(planes.lo(j) + first + k)));
      const simd::Vec4d dq = simd::Set1(std::fabs(c[j] - q[j]));
      all_le = simd::And(all_le, simd::CmpLE(dp, dq));
      any_lt = simd::Or(any_lt, simd::CmpLT(dp, dq));
    }
    StoreMaskBytes(simd::MoveMask(simd::And(all_le, any_lt)), out + k);
  }
}

}  // namespace

namespace internal {

const KernelOps* SimdKernelOps() {
#if defined(__x86_64__) || defined(_M_X64)
  // Compiled with -mavx2, so refuse to dispatch on older silicon.
  if (!__builtin_cpu_supports("avx2")) return nullptr;
#endif
  static const KernelOps ops = [] {
    KernelOps o;
    o.dominates_batch = &DominatesBatchSimd;
    o.dyn_dominates_batch = &DynamicallyDominatesBatchSimd;
    o.first_dominator = &FirstDominatorSimd;
    o.box_overlap_mask_soa = &BoxOverlapMaskSoaSimd;
    o.mindist_corner_batch_soa = &MinDistCornerBatchSoaSimd;
    o.to_distance_space_batch_soa = &ToDistanceSpaceBatchSoaSimd;
    o.in_window_mask_soa = &InWindowMaskSoaSimd;
    o.backend = simd::BackendName();
    return o;
  }();
  return &ops;
}

}  // namespace internal
}  // namespace wnrs

#else  // !WNRS_SIMD_KERNELS or no usable vector backend

namespace wnrs::internal {

const KernelOps* SimdKernelOps() { return nullptr; }

}  // namespace wnrs::internal

#endif  // WNRS_SIMD_KERNELS && backend
