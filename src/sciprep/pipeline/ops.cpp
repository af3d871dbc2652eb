#include "sciprep/pipeline/ops.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "sciprep/common/error.hpp"

namespace sciprep::pipeline {

namespace {

/// Shape check shared by the flips: [c,h,w] image tensor.
void require_chw(const codec::TensorF16& tensor, const char* op) {
  if (tensor.shape.size() != 3) {
    throw ConfigError(
        fmt("{}: requires a [c,h,w] tensor, got rank {}", op,
            tensor.shape.size()));
  }
}

/// Reverse the order of the 64 / (8 * sizeof(T)) lanes packed in `x`.
template <class T>
std::uint64_t reverse_lanes(std::uint64_t x) {
  x = (x >> 32) | (x << 32);
  if constexpr (sizeof(T) <= 2) {
    constexpr std::uint64_t k16 = 0x0000FFFF0000FFFFull;
    x = ((x >> 16) & k16) | ((x & k16) << 16);
  }
  if constexpr (sizeof(T) == 1) {
    constexpr std::uint64_t k8 = 0x00FF00FF00FF00FFull;
    x = ((x >> 8) & k8) | ((x & k8) << 8);
  }
  return x;
}

/// std::reverse over [row, row + n), a 64-bit word from each end at a time
/// (four FP16 values or eight label bytes), then element by element across
/// the middle.
template <class T>
void reverse_row(T* row, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T> &&
                (sizeof(T) == 1 || sizeof(T) == 2));
  constexpr std::size_t kLanes = sizeof(std::uint64_t) / sizeof(T);
  T* lo = row;
  T* hi = row + n;
  while (static_cast<std::size_t>(hi - lo) >= 2 * kLanes) {
    hi -= kLanes;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, lo, sizeof(a));
    std::memcpy(&b, hi, sizeof(b));
    a = reverse_lanes<T>(a);
    b = reverse_lanes<T>(b);
    std::memcpy(static_cast<void*>(lo), &b, sizeof(b));
    std::memcpy(static_cast<void*>(hi), &a, sizeof(a));
    lo += kLanes;
  }
  std::reverse(lo, hi);
}

}  // namespace

RandomFlipX::RandomFlipX(double probability) : probability_(probability) {
  if (probability < 0.0 || probability > 1.0) {
    throw ConfigError("random-flip-x: probability must be in [0,1]");
  }
}

void RandomFlipX::apply(codec::TensorF16& tensor, Rng& rng) const {
  require_chw(tensor, "random-flip-x");
  if (rng.next_double() >= probability_) return;
  const auto c = tensor.shape[0];
  const auto h = tensor.shape[1];
  const auto w = tensor.shape[2];
  for (std::uint64_t ci = 0; ci < c; ++ci) {
    for (std::uint64_t y = 0; y < h; ++y) {
      reverse_row(tensor.values.data() + (ci * h + y) * w, w);
    }
  }
  if (tensor.byte_labels.size() == h * w) {
    for (std::uint64_t y = 0; y < h; ++y) {
      reverse_row(tensor.byte_labels.data() + y * w, w);
    }
  }
}

RandomFlipY::RandomFlipY(double probability) : probability_(probability) {
  if (probability < 0.0 || probability > 1.0) {
    throw ConfigError("random-flip-y: probability must be in [0,1]");
  }
}

void RandomFlipY::apply(codec::TensorF16& tensor, Rng& rng) const {
  require_chw(tensor, "random-flip-y");
  if (rng.next_double() >= probability_) return;
  const auto c = tensor.shape[0];
  const auto h = tensor.shape[1];
  const auto w = tensor.shape[2];
  for (std::uint64_t ci = 0; ci < c; ++ci) {
    Half* plane = tensor.values.data() + ci * h * w;
    for (std::uint64_t y = 0; y < h / 2; ++y) {
      Half* top = plane + y * w;
      Half* bottom = plane + (h - 1 - y) * w;
      std::swap_ranges(top, top + w, bottom);
    }
  }
  if (tensor.byte_labels.size() == h * w) {
    for (std::uint64_t y = 0; y < h / 2; ++y) {
      auto* top = tensor.byte_labels.data() + y * w;
      auto* bottom = tensor.byte_labels.data() + (h - 1 - y) * w;
      std::swap_ranges(top, top + w, bottom);
    }
  }
}

void ScaleOp::apply(codec::TensorF16& tensor, Rng& /*rng*/) const {
  for (Half& value : tensor.values) {
    value = Half(value.to_float() * factor_);
  }
}

}  // namespace sciprep::pipeline
