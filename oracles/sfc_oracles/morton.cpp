#include "sfc_oracles/morton.h"

namespace sfc::oracles {

index_t morton_index_bitloop(const Point& cell, int level_bits) {
  index_t key = 0;
  for (int level = level_bits - 1; level >= 0; --level) {
    for (int i = 0; i < cell.dim(); ++i) {
      key = (key << 1) | ((cell[i] >> level) & 1u);
    }
  }
  return key;
}

}  // namespace sfc::oracles
