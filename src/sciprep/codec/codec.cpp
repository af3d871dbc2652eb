#include <cmath>

#include "sciprep/codec/codec.hpp"
#include "sciprep/common/error.hpp"

namespace sciprep::codec {

double fraction_above_rel_error(std::span<const float> reference,
                                std::span<const Half> decoded,
                                double rel_threshold) {
  SCIPREP_ASSERT(reference.size() == decoded.size());
  if (reference.empty()) return 0.0;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double ref = reference[i];
    const double got = decoded[i].to_float();
    const double err = std::abs(got - ref);
    const double scale = std::abs(ref);
    if (scale == 0.0) {
      // Against an exact zero, any nonzero half counts as exceeding.
      if (err > 0.0) ++bad;
    } else if (err / scale > rel_threshold) {
      ++bad;
    }
  }
  return static_cast<double>(bad) / static_cast<double>(reference.size());
}

}  // namespace sciprep::codec
