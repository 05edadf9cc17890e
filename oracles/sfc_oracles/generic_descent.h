// Forwarding wrapper that strips a curve's specialized descent kernel.
//
// GenericDescentCurve presents the wrapped curve unchanged — same universe,
// same π/π⁻¹ (including the batched codecs), same subtree radix — but does
// NOT forward subtree_children/subtree_children_batch, so every expansion
// routes through the base class's generic batched-decoder descent (decode
// each child's first key, round down to the child grid).  That is exactly
// the pre-kernel path Peano and PermutedZ used before they grew direct
// descent kernels, retained here as:
//
//  - the bit-identity oracle: tests/ranges/test_descent_kernels.cpp checks
//    children and whole covers of the direct kernels against this wrapper;
//  - the CI bench baseline: bench/perf_kernels.cpp pairs each direct-kernel
//    cover against the same cover through this wrapper, and
//    tools/check_bench_speedup.py gates the ratio.
//
// The base descent never reads SubtreeNode::state, so wrapping a
// state-carrying curve (Hilbert) is also valid; subtree_root_state is left
// at the base default 0 accordingly.
#pragma once

#include "sfc/curves/space_filling_curve.h"

namespace sfc::oracles {

class GenericDescentCurve final : public SpaceFillingCurve {
 public:
  /// The wrapped curve must outlive the wrapper.
  explicit GenericDescentCurve(const SpaceFillingCurve& inner)
      : SpaceFillingCurve(inner.universe()), inner_(inner) {}

  std::string name() const override {
    return inner_.name() + "-generic-descent";
  }
  index_t index_of(const Point& cell) const override {
    return inner_.index_of(cell);
  }
  Point point_at(index_t key) const override { return inner_.point_at(key); }
  void index_of_batch(std::span<const Point> cells,
                      std::span<index_t> keys) const override {
    inner_.index_of_batch(cells, keys);
  }
  void point_at_batch(std::span<const index_t> keys,
                      std::span<Point> cells) const override {
    inner_.point_at_batch(keys, cells);
  }
  bool is_continuous() const override { return inner_.is_continuous(); }
  coord_t subtree_radix() const override { return inner_.subtree_radix(); }
  // subtree_children / subtree_children_batch intentionally NOT overridden.

 private:
  const SpaceFillingCurve& inner_;
};

}  // namespace sfc::oracles
