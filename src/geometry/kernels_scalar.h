#ifndef WNRS_GEOMETRY_KERNELS_SCALAR_H_
#define WNRS_GEOMETRY_KERNELS_SCALAR_H_

#include <cmath>
#include <cstddef>

/// One-point scalar primitives shared by the scalar reference kernels
/// (geometry/kernels.cc) and the SIMD kernels' tail loops
/// (geometry/kernels_simd.cc). Keeping a single definition is what makes
/// the bit-identical-fallback guarantee checkable instead of aspirational:
/// both translation units inline exactly this arithmetic, so a parity
/// failure can only come from the vector lanes, never from a drifted
/// scalar copy.
///
/// Everything here is branch-free in the accumulators (bitwise `&`/`|`
/// over comparison results) rather than early-exit, which is also the
/// IEEE-754-correct reading of the paper's Definition 1: a NaN coordinate
/// fails every ordered comparison, so it can never satisfy `<=` and the
/// point never dominates. The early-exit predicates in
/// geometry/dominance.cc are written to agree (`!(a <= b)` exits, not
/// `a > b`).

namespace wnrs::kernel_detail {

/// Block width of the first-dominator scan: wide enough that the inner
/// loop vectorizes (8 doubles = one cache line), small enough that a
/// fruitless tail block costs little. The SIMD path scans two 4-lane
/// groups per block so its early-exit points line up with the scalar
/// reference exactly.
inline constexpr size_t kScanBlock = 8;

/// Dominance of one dense point over another with bitwise accumulators
/// instead of early-exit branches. D == 0 selects the runtime-d loop.
template <size_t D>
inline unsigned char DominatesOne(const double* a, const double* b,
                                  size_t d) {
  unsigned all_le = 1u;
  unsigned any_lt = 0u;
  if constexpr (D != 0) {
    (void)d;
    for (size_t j = 0; j < D; ++j) {
      all_le &= static_cast<unsigned>(a[j] <= b[j]);
      any_lt |= static_cast<unsigned>(a[j] < b[j]);
    }
  } else {
    for (size_t j = 0; j < d; ++j) {
      all_le &= static_cast<unsigned>(a[j] <= b[j]);
      any_lt |= static_cast<unsigned>(a[j] < b[j]);
    }
  }
  return static_cast<unsigned char>(all_le & any_lt);
}

template <size_t D>
inline unsigned char DynamicallyDominatesOne(const double* a, const double* b,
                                             const double* origin, size_t d) {
  unsigned all_le = 1u;
  unsigned any_lt = 0u;
  const size_t n = D != 0 ? D : d;
  for (size_t j = 0; j < n; ++j) {
    const double da = std::fabs(origin[j] - a[j]);
    const double db = std::fabs(origin[j] - b[j]);
    all_le &= static_cast<unsigned>(da <= db);
    any_lt |= static_cast<unsigned>(da < db);
  }
  return static_cast<unsigned char>(all_le & any_lt);
}

/// Transformed lower-corner coordinate of one box interval; same
/// expression tree as RectToDistanceSpace, so packed MinDist values are
/// bit-identical to the Point/Rectangle path. At ±0 the `dlo >= 0.0 &&
/// dhi <= 0.0` containment test accepts both zero signs, matching the
/// transform; a NaN bound falls through to std::min(fabs, fabs), which
/// propagates the first operand exactly like the transform does.
inline double IntervalMinDist(double lo, double hi, double origin) {
  const double dlo = origin - lo;
  const double dhi = origin - hi;
  if (dlo >= 0.0 && dhi <= 0.0) return 0.0;
  return std::min(std::fabs(dlo), std::fabs(dhi));
}

/// InWindow on one point stored with coordinate stride `stride`: |c - p|
/// dynamically dominates |c - q|.
inline bool InWindowOne(const double* p, size_t stride, const double* c,
                        const double* q, size_t d) {
  unsigned all_le = 1u;
  unsigned any_lt = 0u;
  for (size_t j = 0; j < d; ++j) {
    const double dp = std::fabs(c[j] - p[j * stride]);
    const double dq = std::fabs(c[j] - q[j]);
    all_le &= static_cast<unsigned>(dp <= dq);
    any_lt |= static_cast<unsigned>(dp < dq);
  }
  return (all_le & any_lt) != 0u;
}

}  // namespace wnrs::kernel_detail

#endif  // WNRS_GEOMETRY_KERNELS_SCALAR_H_
