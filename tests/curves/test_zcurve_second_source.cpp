// ZCurve against a second-source Morton encoder (sfc_oracles/morton.h): a
// plain bit loop that shares no code with the curve's scalar, BMI2 or
// magic-mask kernels.  ctest runs these tests again with SFC_NO_BMI2=1
// (sfc_batch_codec_no_bmi2), so both kernel families are checked.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sfc/curves/zcurve.h"
#include "sfc_oracles/morton.h"

namespace sfc {
namespace {

TEST(ZCurveSecondSource, OracleReproducesThePaperExample) {
  // §IV-B: d=3, k=3, Z(101, 010, 011) = 100011101₂ = 285.
  EXPECT_EQ(oracles::morton_index_bitloop(Point{0b101, 0b010, 0b011}, 3),
            285u);
}

TEST(ZCurveSecondSource, EveryCellMatchesForDimensionsOneToFour) {
  // Up to 4096 cells per universe: every order up to these is exhaustive.
  const int max_bits[] = {10, 6, 4, 3};
  for (int d = 1; d <= 4; ++d) {
    for (int k = 0; k <= max_bits[d - 1]; ++k) {
      const Universe u = Universe::pow2(d, k);
      const ZCurve z(u);
      const std::string label =
          "d=" + std::to_string(d) + " k=" + std::to_string(k);

      std::vector<Point> cells;
      std::vector<index_t> expected;
      for (index_t id = 0; id < u.cell_count(); ++id) {
        cells.push_back(u.from_row_major(id));
        expected.push_back(oracles::morton_index_bitloop(cells.back(), k));
      }
      std::vector<index_t> batch(cells.size());
      z.index_of_batch(cells, batch);
      for (std::size_t j = 0; j < cells.size(); ++j) {
        ASSERT_EQ(z.index_of(cells[j]), expected[j])
            << label << " cell " << cells[j].to_string();
        ASSERT_EQ(batch[j], expected[j])
            << label << " batch cell " << cells[j].to_string();
      }
    }
  }
}

}  // namespace
}  // namespace sfc
