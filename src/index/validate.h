#ifndef WNRS_INDEX_VALIDATE_H_
#define WNRS_INDEX_VALIDATE_H_

#include <vector>

#include "common/status.h"
#include "geometry/point.h"
#include "index/packed_rtree.h"
#include "index/rtree.h"

namespace wnrs {

/// Deep structural validators for the index layer. Each returns
/// Status::Ok() or a Status::Internal whose message names the violated
/// invariant (in [brackets]) plus enough context to locate it — the
/// contract the seeded-corruption tests pin. They are read-only, walk the
/// whole structure (O(nodes)), and are meant for tests, fuzzers, and the
/// engine's WhyNotEngineOptions::paranoid_checks mode — not for hot
/// paths.
///
/// Invariants checked by ValidateTree, beyond RStarTree::CheckInvariants:
///   [mbr-containment]   every child entry MBR lies inside (and their
///                       union exactly equals) the parent entry MBR
///   [fanout-bounds]     min_entries <= |entries| <= max_entries for
///                       every non-root node; an internal root has >= 2
///   [leaf-depth]        all leaves at one depth, equal to height() - 1
///   [parent-links]      every node's parent pointer is its real parent
///   [entry-count]       leaf data entries sum to size()
Status ValidateTree(const RStarTree& tree);

/// Packed-image invariants: arena/slab bounds, child-index validity and
/// reachability ([slab-bounds], [child-links]), MBR containment between
/// internal entries and the nodes they reference ([mbr-containment]),
/// uniform leaf depth ([leaf-depth]), and data-entry count ([entry-count]).
Status ValidatePacked(const PackedRTree& packed);

/// Structural equality of a frozen image with its source tree: same
/// pre-order node sequence, leaf flags, entry counts, entry MBRs
/// (bit-identical doubles), leaf data ids, and child wiring
/// ([packed-parity]). This is the invariant the engine's bit-identical
/// packed read path rests on; a packed image frozen from any other tree
/// state (a "mismatched slab") must be rejected.
Status ValidatePackedMatchesDynamic(const PackedRTree& packed,
                                    const RStarTree& tree);

/// Agreement of a packed image with the points it indexes, the check an
/// engine bundle's slab passes before the mutation tree is thawed from
/// it: the dimensionality matches and there is one data entry per live
/// point ([tree-shape]); every leaf id is in range, not tombstoned in
/// `removed` (ids past its end are live), indexed once, and carries an
/// MBR exactly equal to its point ([packed-parity]). Linear in entries
/// plus points.
Status ValidatePackedMatchesPoints(const PackedRTree& packed,
                                   const std::vector<Point>& points,
                                   const std::vector<bool>& removed);

}  // namespace wnrs

#endif  // WNRS_INDEX_VALIDATE_H_
