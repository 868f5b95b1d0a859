#ifndef WNRS_GEOMETRY_KERNELS_H_
#define WNRS_GEOMETRY_KERNELS_H_

#include <cstddef>

namespace wnrs {

/// Branch-free dominance and distance kernels over raw coordinate spans.
///
/// The `Point`/`Rectangle` classes each own a heap-allocated
/// `std::vector<double>`, which is the right shape for the mutation path
/// but poison for the query hot loops: every dominance test chases two
/// pointers and the per-point allocations defeat vectorization. These
/// kernels are the packed read path's counterpart. They come in two input
/// shapes:
///
///  - *dense spans*: n points of d coordinates, densely packed
///    (point-major, "AoS") — the layout of the query-local skyline
///    buffers that grow while a traversal runs;
///  - *SoA planes* (`SoaPlanes`): one contiguous double plane per min/max
///    coordinate — the frozen `PackedRTree` entry-slab layout, where a
///    node's entries occupy a contiguous index range of every plane and a
///    batch kernel streams full vectors with no shuffling.
///
/// Each dispatched kernel has two implementations with bit-identical
/// outputs: the scalar reference (`scalar_kernels::`, always compiled,
/// auto-vectorizable but branch-free by hand) and an explicit SIMD
/// version (geometry/kernels_simd.cc, AVX2/NEON behind the portable
/// wrapper in geometry/simd.h). The public entry points resolve to the
/// SIMD version once at startup when it was compiled in (`WNRS_SIMD=ON`)
/// and the CPU supports the ISA, else to the scalar reference;
/// `KernelBackend()` names the active choice. CI parity-tests both
/// builds, including NaN/±0/±inf inputs, so the fallback cannot drift.
///
/// Semantics mirror geometry/dominance.h bit for bit: the kernels are
/// drop-in replacements for the scalar predicates, and the packed/dynamic
/// parity tests depend on that. Where IEEE comparisons make the branchy
/// and branch-free formulations differ (NaN coordinates), the Point-based
/// predicates are defined to agree with the branch-free form: a NaN
/// coordinate fails every ordered comparison, so it can never satisfy
/// dominance.

/// Rounds a span length up so that full-width vector blocks may read and
/// write a little past `n` without leaving the allocation: the result is
/// a multiple of 8 and at least n + 8. Scratch buffers handed to the SoA
/// batch kernels must be sized with KernelPad (lanes in [count,
/// KernelPad(count)) hold unspecified values after a kernel runs), and
/// the PackedRTree pads its coordinate planes the same way.
constexpr size_t KernelPad(size_t n) { return (n & ~size_t{7}) + 16; }

/// View of structure-of-arrays min/max coordinate planes (the frozen
/// PackedRTree entry slab): plane j (0 <= j < d) holds the j-th *lower*
/// coordinate of every entry, plane d + j the j-th *upper*. Each plane is
/// `stride` doubles long with stride >= KernelPad(entry count), so batch
/// kernels may read full vectors beyond the last live entry (padding
/// lanes are quiet NaNs; the matching output lanes are scratch).
struct SoaPlanes {
  const double* data = nullptr;  ///< 2*d planes: d lo planes, then d hi.
  size_t stride = 0;             ///< Doubles per plane (KernelPad'ed).
  size_t d = 0;

  const double* lo(size_t j) const { return data + j * stride; }
  const double* hi(size_t j) const { return data + (d + j) * stride; }
};

// ---------------------------------------------------------------------------
// Dense-span kernels (point-major layout).
// ---------------------------------------------------------------------------

/// out[i] = 1 iff point i of `points` dominates `p` (paper Definition 1:
/// points[i*d+j] <= p[j] for all j, strict for some j), else 0.
/// `points` holds n points of d coordinates, densely packed.
void DominatesBatch(const double* points, size_t n, size_t d, const double* p,
                    unsigned char* out);

/// out[i] = 1 iff point i of `points` dynamically dominates `p` w.r.t.
/// `origin` (paper Definition 2), else 0. Equivalent to DominatesBatch
/// after mapping both sides with x -> |origin - x|, fused into one pass.
void DynamicallyDominatesBatch(const double* points, size_t n, size_t d,
                               const double* p, const double* origin,
                               unsigned char* out);

/// Index of the first of the n points that dominates `p`, or n when none
/// does — the batch twin of the skyline-buffer scan in BBS/window-skyline
/// loops. Scans in blocks so the inner comparisons vectorize while
/// retaining early exit between blocks, and takes the lowest set bit of
/// the hit block's mask, so the result equals the scalar first-hit scan
/// (and `result + 1` is that scan's dominance-test count on a hit).
size_t FirstDominator(const double* points, size_t n, size_t d,
                      const double* p);

/// True iff any of the n points dominates `p`: FirstDominator(...) < n.
bool DominatedByAny(const double* points, size_t n, size_t d,
                    const double* p);

// ---------------------------------------------------------------------------
// SoA node-scan kernels. All take an entry range [first, first + count)
// of the planes; `count` may be 0. Output buffers must be sized with
// KernelPad(count) (or larger): lanes beyond `count` are scratch.
// ---------------------------------------------------------------------------

/// out[k] = 1 iff box first+k intersects the closed window [wlo, whi]:
/// the negated exclusion test !(hi_j < wlo_j) && !(lo_j > whi_j) per
/// dimension, exactly Rectangle::Intersects. The negated form matters on
/// non-finite data: a NaN coordinate fails the exclusion comparisons, so
/// such a box conservatively *intersects* — overlap is a pruning filter
/// and must never drop a box the Point-based traversal would visit.
void BoxOverlapMaskSoa(const SoaPlanes& planes, size_t first, size_t count,
                       const double* wlo, const double* whi,
                       unsigned char* out);

/// Transformed-lower-corner batch: for each box first+k, corner j (the
/// lower corner of the box image under x -> |origin - x|, exactly
/// RectToDistanceSpace(...).lo()[j]) is written to
/// corners[j * corner_stride + k] — SoA scratch layout — and dist[k]
/// receives the corner's L1 norm accumulated in ascending-j order
/// (matching RectToDistanceSpace(...).lo() + L1Norm(), bit for bit).
/// origin == nullptr selects the identity map (static skyline): corners
/// copy the lo planes and dist[k] = sum_j |lo_j|.
void MinDistCornerBatchSoa(const SoaPlanes& planes, size_t first,
                           size_t count, const double* origin,
                           double* corners, size_t corner_stride,
                           double* dist);

/// Point-entry transform batch (entries are degenerate boxes; reads the
/// lo planes): out[j * out_stride + k] = |origin[j] - lo_j(first+k)| and
/// dist[k] = the L1 norm in ascending-j order — ToDistanceSpaceSpan +
/// L1NormSpan on spans, bit for bit. origin == nullptr is the identity
/// map: coordinates are copied and dist[k] = sum_j |lo_j|.
void ToDistanceSpaceBatchSoa(const SoaPlanes& planes, size_t first,
                             size_t count, const double* origin, double* out,
                             size_t out_stride, double* dist);

/// out[k] = 1 iff point entry first+k lies inside customer `c`'s window
/// w.r.t. `q` (InWindow: |c - x| <= |c - q| everywhere, strict
/// somewhere), else 0. Reads the lo planes.
void InWindowMaskSoa(const SoaPlanes& planes, size_t first, size_t count,
                     const double* c, const double* q, unsigned char* out);

// ---------------------------------------------------------------------------
// Span primitives shared by the packed traversals. These replicate the
// arithmetic of geometry/transform.cc exactly (same operations in the
// same order), which is what keeps the packed read path bit-identical to
// the Point-based one. They are scalar by design: callers use them on
// single mapped points (heap pops, pool rows), not node scans.
// ---------------------------------------------------------------------------

/// out[j] = |origin[j] - p[j]| for j < d (ToDistanceSpace on spans).
/// `stride` is the distance between consecutive coordinates of `p`.
void ToDistanceSpaceSpan(const double* p, size_t stride, const double* origin,
                         size_t d, double* out);

/// Sum of |p[j]| for j < d (Point::L1Norm on spans).
double L1NormSpan(const double* p, size_t d);

/// True iff `a` dominates `b` (Definition 1) on dense d-spans.
bool DominatesSpan(const double* a, const double* b, size_t d);

/// True iff `p` (a point stored with coordinate stride `stride`)
/// dynamically dominates `q` w.r.t. `c` — InWindow on spans.
bool InWindowSpan(const double* p, size_t stride, const double* c,
                  const double* q, size_t d);

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

/// Name of the kernel implementation the public entry points resolved
/// to: "avx2", "neon", or "scalar".
const char* KernelBackend();

/// Scalar reference implementations of every dispatched kernel — always
/// compiled, never vectorized by hand. The parity tests (and the
/// microbench's scalar configs) call these directly; the public entry
/// points above forward here when no SIMD backend is active.
namespace scalar_kernels {

void DominatesBatch(const double* points, size_t n, size_t d, const double* p,
                    unsigned char* out);
void DynamicallyDominatesBatch(const double* points, size_t n, size_t d,
                               const double* p, const double* origin,
                               unsigned char* out);
size_t FirstDominator(const double* points, size_t n, size_t d,
                      const double* p);
bool DominatedByAny(const double* points, size_t n, size_t d,
                    const double* p);
void BoxOverlapMaskSoa(const SoaPlanes& planes, size_t first, size_t count,
                       const double* wlo, const double* whi,
                       unsigned char* out);
void MinDistCornerBatchSoa(const SoaPlanes& planes, size_t first,
                           size_t count, const double* origin,
                           double* corners, size_t corner_stride,
                           double* dist);
void ToDistanceSpaceBatchSoa(const SoaPlanes& planes, size_t first,
                             size_t count, const double* origin, double* out,
                             size_t out_stride, double* dist);
void InWindowMaskSoa(const SoaPlanes& planes, size_t first, size_t count,
                     const double* c, const double* q, unsigned char* out);

}  // namespace scalar_kernels

namespace internal {

/// Function table one kernel implementation fills in. Public entry points
/// resolve the active table once (thread-safe local static) and forward.
struct KernelOps {
  void (*dominates_batch)(const double*, size_t, size_t, const double*,
                          unsigned char*);
  void (*dyn_dominates_batch)(const double*, size_t, size_t, const double*,
                              const double*, unsigned char*);
  size_t (*first_dominator)(const double*, size_t, size_t, const double*);
  void (*box_overlap_mask_soa)(const SoaPlanes&, size_t, size_t,
                               const double*, const double*, unsigned char*);
  void (*mindist_corner_batch_soa)(const SoaPlanes&, size_t, size_t,
                                   const double*, double*, size_t, double*);
  void (*to_distance_space_batch_soa)(const SoaPlanes&, size_t, size_t,
                                      const double*, double*, size_t,
                                      double*);
  void (*in_window_mask_soa)(const SoaPlanes&, size_t, size_t, const double*,
                             const double*, unsigned char*);
  const char* backend;
};

/// Defined in geometry/kernels_simd.cc. Returns the vector kernel table,
/// or nullptr when SIMD kernels were compiled out (WNRS_SIMD=OFF) or the
/// CPU lacks the required ISA at run time.
const KernelOps* SimdKernelOps();

}  // namespace internal

}  // namespace wnrs

#endif  // WNRS_GEOMETRY_KERNELS_H_
