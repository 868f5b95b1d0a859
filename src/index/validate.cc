#include "index/validate.h"

#include <cstdint>
#include <vector>

#include "common/string_util.h"

namespace wnrs {

namespace {

Rectangle UnionOfEntries(const RStarTree::Node& node) {
  Rectangle mbr = node.entries.front().mbr;
  for (size_t i = 1; i < node.entries.size(); ++i) {
    mbr = mbr.BoundingUnion(node.entries[i].mbr);
  }
  return mbr;
}

Status ValidateNode(const RStarTree& tree, const RStarTree::Node* node,
                    const RStarTree::Node* parent, size_t depth,
                    size_t* leaf_depth, size_t* data_entries) {
  if (node == nullptr) {
    return Status::Internal(
        StrFormat("[child-links] null node at depth %zu", depth));
  }
  if (node->parent != parent) {
    return Status::Internal(
        StrFormat("[parent-links] node at depth %zu has a parent pointer "
                  "that is not its tree parent",
                  depth));
  }
  const bool is_root = parent == nullptr;
  if (!is_root && node->entries.size() < tree.min_entries()) {
    return Status::Internal(
        StrFormat("[fanout-bounds] underfull node at depth %zu: %zu entries "
                  "< min fan-out %zu",
                  depth, node->entries.size(), tree.min_entries()));
  }
  if (node->entries.size() > tree.max_entries()) {
    return Status::Internal(
        StrFormat("[fanout-bounds] overfull node at depth %zu: %zu entries "
                  "> max fan-out %zu",
                  depth, node->entries.size(), tree.max_entries()));
  }
  if (is_root && !node->is_leaf && node->entries.size() < 2) {
    return Status::Internal(
        "[fanout-bounds] internal root with fewer than 2 children");
  }
  if (node->is_leaf) {
    if (*leaf_depth == SIZE_MAX) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Internal(
          StrFormat("[leaf-depth] leaf at depth %zu but earlier leaves at "
                    "depth %zu",
                    depth, *leaf_depth));
    }
    *data_entries += node->entries.size();
    return Status::Ok();
  }
  for (size_t i = 0; i < node->entries.size(); ++i) {
    const RStarTree::Entry& e = node->entries[i];
    if (e.child == nullptr) {
      return Status::Internal(StrFormat(
          "[child-links] internal entry %zu at depth %zu has no child", i,
          depth));
    }
    if (e.child->entries.empty()) {
      return Status::Internal(StrFormat(
          "[child-links] entry %zu at depth %zu references an empty node", i,
          depth));
    }
    const Rectangle child_union = UnionOfEntries(*e.child);
    if (!e.mbr.ContainsRect(child_union)) {
      return Status::Internal(StrFormat(
          "[mbr-containment] entry %zu at depth %zu has MBR %s that does not "
          "contain its child's entries (union %s)",
          i, depth, e.mbr.ToString().c_str(), child_union.ToString().c_str()));
    }
    if (!(e.mbr == child_union)) {
      return Status::Internal(StrFormat(
          "[mbr-containment] entry %zu at depth %zu has inflated MBR %s; the "
          "tight union of its child's entries is %s",
          i, depth, e.mbr.ToString().c_str(), child_union.ToString().c_str()));
    }
    WNRS_RETURN_IF_ERROR(ValidateNode(tree, e.child, node, depth + 1,
                                      leaf_depth, data_entries));
  }
  return Status::Ok();
}

}  // namespace

Status ValidateTree(const RStarTree& tree) {
  const RStarTree::Node* root = tree.root();
  if (root == nullptr) {
    return Status::Internal("[child-links] tree has a null root");
  }
  if (tree.size() == 0) {
    if (!root->is_leaf || !root->entries.empty()) {
      return Status::Internal(
          "[entry-count] empty tree whose root still holds entries");
    }
    return Status::Ok();
  }
  size_t leaf_depth = SIZE_MAX;
  size_t data_entries = 0;
  WNRS_RETURN_IF_ERROR(
      ValidateNode(tree, root, nullptr, 0, &leaf_depth, &data_entries));
  if (data_entries != tree.size()) {
    return Status::Internal(
        StrFormat("[entry-count] %zu leaf data entries but size() is %zu",
                  data_entries, tree.size()));
  }
  if (leaf_depth != SIZE_MAX && leaf_depth + 1 != tree.height()) {
    return Status::Internal(
        StrFormat("[leaf-depth] leaves at depth %zu but height() is %zu",
                  leaf_depth, tree.height()));
  }
  return Status::Ok();
}

Status ValidatePacked(const PackedRTree& packed) {
  // Slab bounds, reachability, leaf depth and entry count are the packed
  // tree's own self-check; re-tag its failures so callers see the same
  // invariant vocabulary as ValidateTree.
  Status base = packed.CheckInvariants();
  if (!base.ok()) {
    return Status::Internal("[slab-bounds] " + base.message());
  }
  // The node arena must leave the child-index range unambiguous: every
  // stored child index has to fit uint32_t strictly below the kNoNode
  // sentinel (Freeze rejects larger trees; assert the bound held).
  if (packed.num_nodes() > static_cast<size_t>(PackedRTree::kNoNode) - 1) {
    return Status::Internal(StrFormat(
        "[slab-bounds] node arena holds %zu nodes, exceeding the %u "
        "child-index bound",
        packed.num_nodes(), PackedRTree::kNoNode - 1));
  }
  // MBR containment between internal entries and the nodes they reference
  // (the self-check covers wiring, not geometry).
  const size_t dims = packed.dims();
  for (uint32_t ni = 0; ni < packed.num_nodes(); ++ni) {
    const PackedRTree::Node& n = packed.node(ni);
    if (n.is_leaf != 0) continue;
    for (uint32_t e = n.first_entry; e < n.first_entry + n.entry_count; ++e) {
      const PackedRTree::Node& child = packed.node(packed.entry_child(e));
      for (uint32_t ce = child.first_entry;
           ce < child.first_entry + child.entry_count; ++ce) {
        for (size_t j = 0; j < dims; ++j) {
          if (packed.entry_lo(ce, j) < packed.entry_lo(e, j) ||
              packed.entry_hi(ce, j) > packed.entry_hi(e, j)) {
            return Status::Internal(StrFormat(
                "[mbr-containment] packed entry %u of node %u does not "
                "contain entry %u of child node %u in dimension %zu",
                e, ni, ce, packed.entry_child(e), j));
          }
        }
      }
    }
  }
  return Status::Ok();
}

Status ValidatePackedMatchesDynamic(const PackedRTree& packed,
                                    const RStarTree& tree) {
  if (packed.dims() != tree.dims()) {
    return Status::Internal(
        StrFormat("[packed-parity] dimensionality mismatch: packed %zu vs "
                  "dynamic %zu",
                  packed.dims(), tree.dims()));
  }
  if (packed.size() != tree.size()) {
    return Status::Internal(
        StrFormat("[packed-parity] data-entry count mismatch: packed %zu vs "
                  "dynamic %zu",
                  packed.size(), tree.size()));
  }
  if (packed.height() != tree.height()) {
    return Status::Internal(
        StrFormat("[packed-parity] height mismatch: packed %zu vs dynamic %zu",
                  packed.height(), tree.height()));
  }
  // Freeze() assigns arena indices in pre-order with children in entry
  // order; replay the same walk over the dynamic tree and compare node by
  // node. `expect[i]` is the dynamic node that packed node i must mirror.
  std::vector<const RStarTree::Node*> expect;
  std::vector<const RStarTree::Node*> stack = {tree.root()};
  while (!stack.empty()) {
    const RStarTree::Node* src = stack.back();
    stack.pop_back();
    expect.push_back(src);
    if (!src->is_leaf) {
      for (size_t i = src->entries.size(); i > 0; --i) {
        stack.push_back(src->entries[i - 1].child);
      }
    }
  }
  if (expect.size() != packed.num_nodes()) {
    return Status::Internal(
        StrFormat("[packed-parity] node count mismatch: packed %zu vs "
                  "dynamic %zu",
                  packed.num_nodes(), expect.size()));
  }
  for (uint32_t ni = 0; ni < packed.num_nodes(); ++ni) {
    const PackedRTree::Node& pn = packed.node(ni);
    const RStarTree::Node* dn = expect[ni];
    if ((pn.is_leaf != 0) != dn->is_leaf) {
      return Status::Internal(
          StrFormat("[packed-parity] node %u leaf flag mismatch", ni));
    }
    if (pn.entry_count != dn->entries.size()) {
      return Status::Internal(StrFormat(
          "[packed-parity] node %u has %u packed entries vs %zu dynamic", ni,
          pn.entry_count, dn->entries.size()));
    }
    for (uint32_t i = 0; i < pn.entry_count; ++i) {
      const uint32_t e = pn.first_entry + i;
      const RStarTree::Entry& de = dn->entries[i];
      for (size_t j = 0; j < packed.dims(); ++j) {
        if (packed.entry_lo(e, j) != de.mbr.lo()[j] ||
            packed.entry_hi(e, j) != de.mbr.hi()[j]) {
          return Status::Internal(StrFormat(
              "[packed-parity] node %u entry %u MBR differs from the dynamic "
              "tree in dimension %zu",
              ni, i, j));
        }
      }
      if (pn.is_leaf != 0) {
        if (packed.entry_id(e) != de.id) {
          return Status::Internal(StrFormat(
              "[packed-parity] node %u entry %u data id mismatch: packed "
              "%lld vs dynamic %lld",
              ni, i, static_cast<long long>(packed.entry_id(e)),
              static_cast<long long>(de.id)));
        }
      } else {
        const uint32_t child = packed.entry_child(e);
        if (child >= expect.size() || expect[child] != de.child) {
          return Status::Internal(StrFormat(
              "[packed-parity] node %u entry %u child link %u does not "
              "reference the pre-order twin of the dynamic child",
              ni, i, child));
        }
      }
    }
  }
  return Status::Ok();
}

Status ValidatePackedMatchesPoints(const PackedRTree& packed,
                                   const std::vector<Point>& points,
                                   const std::vector<bool>& removed) {
  size_t live = points.size();
  for (bool r : removed) {
    if (r) --live;
  }
  const size_t dims = points.empty() ? packed.dims() : points.front().dims();
  if (packed.dims() != dims || packed.size() != live) {
    return Status::Internal(StrFormat(
        "[tree-shape] packed tree holds %zu entries of %zu dims; the data "
        "has %zu live points of %zu dims",
        packed.size(), packed.dims(), live, dims));
  }
  std::vector<bool> seen(points.size(), false);
  for (uint32_t ni = 0; ni < packed.num_nodes(); ++ni) {
    const PackedRTree::Node& n = packed.node(ni);
    if (n.is_leaf == 0) continue;
    for (uint32_t e = n.first_entry; e < n.first_entry + n.entry_count; ++e) {
      const PackedRTree::Id id = packed.entry_id(e);
      if (id < 0 || static_cast<uint64_t>(id) >= points.size()) {
        return Status::Internal(StrFormat(
            "[packed-parity] leaf entry %u holds id %lld outside the %zu "
            "points",
            e, static_cast<long long>(id), points.size()));
      }
      const size_t i = static_cast<size_t>(id);
      if (i < removed.size() && removed[i]) {
        return Status::Internal(StrFormat(
            "[packed-parity] leaf entry %u indexes tombstoned id %zu", e, i));
      }
      if (seen[i]) {
        return Status::Internal(StrFormat(
            "[packed-parity] id %zu is indexed more than once", i));
      }
      seen[i] = true;
      for (size_t j = 0; j < dims; ++j) {
        if (packed.entry_lo(e, j) != points[i][j] ||
            packed.entry_hi(e, j) != points[i][j]) {
          return Status::Internal(StrFormat(
              "[packed-parity] leaf entry %u MBR differs from point %zu in "
              "dimension %zu",
              e, i, j));
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace wnrs
