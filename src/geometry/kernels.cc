#include "geometry/kernels.h"

#include <bit>
#include <cmath>

#include "geometry/kernels_scalar.h"

namespace wnrs {

// ---------------------------------------------------------------------------
// Scalar reference implementations. These are the semantics: the SIMD
// path in geometry/kernels_simd.cc must reproduce them bit for bit, and
// the kernel parity tests enforce that with NaN/±0/±inf fuzzing.
// ---------------------------------------------------------------------------

namespace scalar_kernels {
namespace {

using kernel_detail::DominatesOne;
using kernel_detail::DynamicallyDominatesOne;
using kernel_detail::IntervalMinDist;
using kernel_detail::kScanBlock;

template <size_t D>
void DominatesBatchImpl(const double* points, size_t n, size_t d,
                        const double* p, unsigned char* out) {
  const size_t step = D != 0 ? D : d;
  for (size_t i = 0; i < n; ++i) {
    out[i] = DominatesOne<D>(points + i * step, p, d);
  }
}

template <size_t D>
void DynamicallyDominatesBatchImpl(const double* points, size_t n, size_t d,
                                   const double* p, const double* origin,
                                   unsigned char* out) {
  const size_t step = D != 0 ? D : d;
  for (size_t i = 0; i < n; ++i) {
    out[i] = DynamicallyDominatesOne<D>(points + i * step, p, origin, d);
  }
}

template <size_t D>
size_t FirstDominatorImpl(const double* points, size_t n, size_t d,
                          const double* p) {
  const size_t step = D != 0 ? D : d;
  size_t i = 0;
  for (; i + kScanBlock <= n; i += kScanBlock) {
    unsigned mask = 0;
    for (size_t k = 0; k < kScanBlock; ++k) {
      mask |= static_cast<unsigned>(
                  DominatesOne<D>(points + (i + k) * step, p, d))
              << k;
    }
    if (mask != 0) return i + static_cast<size_t>(std::countr_zero(mask));
  }
  for (; i < n; ++i) {
    if (DominatesOne<D>(points + i * step, p, d) != 0) return i;
  }
  return n;
}

}  // namespace

void DominatesBatch(const double* points, size_t n, size_t d, const double* p,
                    unsigned char* out) {
  switch (d) {
    case 2: DominatesBatchImpl<2>(points, n, d, p, out); return;
    case 3: DominatesBatchImpl<3>(points, n, d, p, out); return;
    case 4: DominatesBatchImpl<4>(points, n, d, p, out); return;
    default: DominatesBatchImpl<0>(points, n, d, p, out); return;
  }
}

void DynamicallyDominatesBatch(const double* points, size_t n, size_t d,
                               const double* p, const double* origin,
                               unsigned char* out) {
  switch (d) {
    case 2:
      DynamicallyDominatesBatchImpl<2>(points, n, d, p, origin, out);
      return;
    case 3:
      DynamicallyDominatesBatchImpl<3>(points, n, d, p, origin, out);
      return;
    case 4:
      DynamicallyDominatesBatchImpl<4>(points, n, d, p, origin, out);
      return;
    default:
      DynamicallyDominatesBatchImpl<0>(points, n, d, p, origin, out);
      return;
  }
}

size_t FirstDominator(const double* points, size_t n, size_t d,
                      const double* p) {
  switch (d) {
    case 2: return FirstDominatorImpl<2>(points, n, d, p);
    case 3: return FirstDominatorImpl<3>(points, n, d, p);
    case 4: return FirstDominatorImpl<4>(points, n, d, p);
    default: return FirstDominatorImpl<0>(points, n, d, p);
  }
}

bool DominatedByAny(const double* points, size_t n, size_t d,
                    const double* p) {
  return FirstDominator(points, n, d, p) < n;
}

void BoxOverlapMaskSoa(const SoaPlanes& planes, size_t first, size_t count,
                       const double* wlo, const double* whi,
                       unsigned char* out) {
  for (size_t k = 0; k < count; ++k) out[k] = 1;
  for (size_t j = 0; j < planes.d; ++j) {
    const double* lo = planes.lo(j) + first;
    const double* hi = planes.hi(j) + first;
    for (size_t k = 0; k < count; ++k) {
      const unsigned excluded = static_cast<unsigned>(hi[k] < wlo[j]) |
                                static_cast<unsigned>(lo[k] > whi[j]);
      out[k] = static_cast<unsigned char>(out[k] & (excluded ^ 1u));
    }
  }
}

void MinDistCornerBatchSoa(const SoaPlanes& planes, size_t first,
                           size_t count, const double* origin,
                           double* corners, size_t corner_stride,
                           double* dist) {
  for (size_t k = 0; k < count; ++k) dist[k] = 0.0;
  for (size_t j = 0; j < planes.d; ++j) {
    const double* lo = planes.lo(j) + first;
    const double* hi = planes.hi(j) + first;
    double* cj = corners + j * corner_stride;
    if (origin == nullptr) {
      for (size_t k = 0; k < count; ++k) {
        cj[k] = lo[k];
        dist[k] += std::fabs(lo[k]);
      }
    } else {
      const double oj = origin[j];
      for (size_t k = 0; k < count; ++k) {
        const double c = IntervalMinDist(lo[k], hi[k], oj);
        cj[k] = c;
        dist[k] += c;
      }
    }
  }
}

void ToDistanceSpaceBatchSoa(const SoaPlanes& planes, size_t first,
                             size_t count, const double* origin, double* out,
                             size_t out_stride, double* dist) {
  for (size_t k = 0; k < count; ++k) dist[k] = 0.0;
  for (size_t j = 0; j < planes.d; ++j) {
    const double* lo = planes.lo(j) + first;
    double* oj = out + j * out_stride;
    if (origin == nullptr) {
      for (size_t k = 0; k < count; ++k) {
        oj[k] = lo[k];
        dist[k] += std::fabs(lo[k]);
      }
    } else {
      const double o = origin[j];
      for (size_t k = 0; k < count; ++k) {
        const double t = std::fabs(o - lo[k]);
        oj[k] = t;
        dist[k] += t;
      }
    }
  }
}

void InWindowMaskSoa(const SoaPlanes& planes, size_t first, size_t count,
                     const double* c, const double* q, unsigned char* out) {
  if (planes.d == 0) {
    for (size_t k = 0; k < count; ++k) out[k] = 0;
    return;
  }
  // all_le rides in bit 0 of out[k], any_lt in bit 1; collapsed at the end.
  for (size_t k = 0; k < count; ++k) out[k] = 1;
  for (size_t j = 0; j < planes.d; ++j) {
    const double* lo = planes.lo(j) + first;
    const double cj = c[j];
    const double dq = std::fabs(cj - q[j]);
    for (size_t k = 0; k < count; ++k) {
      const double dp = std::fabs(cj - lo[k]);
      const unsigned le = static_cast<unsigned>(dp <= dq);
      const unsigned lt = static_cast<unsigned>(dp < dq) << 1;
      out[k] = static_cast<unsigned char>((out[k] & (le | 2u)) | lt);
    }
  }
  for (size_t k = 0; k < count; ++k) {
    out[k] = static_cast<unsigned char>((out[k] & 1u) & (out[k] >> 1));
  }
}

}  // namespace scalar_kernels

// ---------------------------------------------------------------------------
// Span primitives — scalar by design (single mapped points, not node
// scans); see kernels.h.
// ---------------------------------------------------------------------------

void ToDistanceSpaceSpan(const double* p, size_t stride, const double* origin,
                         size_t d, double* out) {
  for (size_t j = 0; j < d; ++j) {
    out[j] = std::fabs(origin[j] - p[j * stride]);
  }
}

double L1NormSpan(const double* p, size_t d) {
  double sum = 0.0;
  for (size_t j = 0; j < d; ++j) sum += std::fabs(p[j]);
  return sum;
}

bool DominatesSpan(const double* a, const double* b, size_t d) {
  using kernel_detail::DominatesOne;
  switch (d) {
    case 2: return DominatesOne<2>(a, b, d) != 0;
    case 3: return DominatesOne<3>(a, b, d) != 0;
    case 4: return DominatesOne<4>(a, b, d) != 0;
    default: return DominatesOne<0>(a, b, d) != 0;
  }
}

bool InWindowSpan(const double* p, size_t stride, const double* c,
                  const double* q, size_t d) {
  return kernel_detail::InWindowOne(p, stride, c, q, d);
}

// ---------------------------------------------------------------------------
// Dispatch: resolve once, forward ever after.
// ---------------------------------------------------------------------------

namespace {

internal::KernelOps ScalarOps() {
  internal::KernelOps ops;
  ops.dominates_batch = &scalar_kernels::DominatesBatch;
  ops.dyn_dominates_batch = &scalar_kernels::DynamicallyDominatesBatch;
  ops.first_dominator = &scalar_kernels::FirstDominator;
  ops.box_overlap_mask_soa = &scalar_kernels::BoxOverlapMaskSoa;
  ops.mindist_corner_batch_soa = &scalar_kernels::MinDistCornerBatchSoa;
  ops.to_distance_space_batch_soa = &scalar_kernels::ToDistanceSpaceBatchSoa;
  ops.in_window_mask_soa = &scalar_kernels::InWindowMaskSoa;
  ops.backend = "scalar";
  return ops;
}

const internal::KernelOps& ActiveOps() {
  static const internal::KernelOps ops = [] {
    const internal::KernelOps* simd = internal::SimdKernelOps();
    return simd != nullptr ? *simd : ScalarOps();
  }();
  return ops;
}

}  // namespace

const char* KernelBackend() { return ActiveOps().backend; }

void DominatesBatch(const double* points, size_t n, size_t d, const double* p,
                    unsigned char* out) {
  ActiveOps().dominates_batch(points, n, d, p, out);
}

void DynamicallyDominatesBatch(const double* points, size_t n, size_t d,
                               const double* p, const double* origin,
                               unsigned char* out) {
  ActiveOps().dyn_dominates_batch(points, n, d, p, origin, out);
}

size_t FirstDominator(const double* points, size_t n, size_t d,
                      const double* p) {
  return ActiveOps().first_dominator(points, n, d, p);
}

bool DominatedByAny(const double* points, size_t n, size_t d,
                    const double* p) {
  return FirstDominator(points, n, d, p) < n;
}

void BoxOverlapMaskSoa(const SoaPlanes& planes, size_t first, size_t count,
                       const double* wlo, const double* whi,
                       unsigned char* out) {
  ActiveOps().box_overlap_mask_soa(planes, first, count, wlo, whi, out);
}

void MinDistCornerBatchSoa(const SoaPlanes& planes, size_t first,
                           size_t count, const double* origin,
                           double* corners, size_t corner_stride,
                           double* dist) {
  ActiveOps().mindist_corner_batch_soa(planes, first, count, origin, corners,
                                       corner_stride, dist);
}

void ToDistanceSpaceBatchSoa(const SoaPlanes& planes, size_t first,
                             size_t count, const double* origin, double* out,
                             size_t out_stride, double* dist) {
  ActiveOps().to_distance_space_batch_soa(planes, first, count, origin, out,
                                          out_stride, dist);
}

void InWindowMaskSoa(const SoaPlanes& planes, size_t first, size_t count,
                     const double* c, const double* q, unsigned char* out) {
  ActiveOps().in_window_mask_soa(planes, first, count, c, q, out);
}

}  // namespace wnrs
