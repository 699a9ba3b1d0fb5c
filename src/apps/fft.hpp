// Radix-2 FFT over instrumented complex values — the numerical core of
// the FT benchmark, exposed for direct testing and reuse.
#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "fsefi/real.hpp"

namespace resilience::apps {

/// Complex value over an arithmetic type T: fsefi::Real, or
/// fsefi::PackedReal in the FFT's quiet windows, where the same operator
/// shapes keep every op in the per-op order.
template <class T>
struct BasicComplex {
  T re{0.0};
  T im{0.0};

  friend BasicComplex operator+(BasicComplex a, BasicComplex b) {
    return {a.re + b.re, a.im + b.im};
  }
  friend BasicComplex operator-(BasicComplex a, BasicComplex b) {
    return {a.re - b.re, a.im - b.im};
  }
  friend BasicComplex operator*(BasicComplex a, BasicComplex b) {
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
  }
};

/// Complex value over instrumented reals; trivially copyable so FT's
/// transpose can ship blocks of them through the transport.
using RComplex = BasicComplex<fsefi::Real>;
static_assert(std::is_trivially_copyable_v<RComplex>);

/// Precomputed support tables for power-of-two FFTs of one size.
/// Construction uses plain doubles (setup is uninstrumented); transforms
/// run on Real (counted and injectable).
class FftPlan {
 public:
  /// Throws std::invalid_argument unless n is a power of two >= 2.
  explicit FftPlan(int n);

  [[nodiscard]] int size() const noexcept { return n_; }

  /// In-place radix-2 FFT; `inverse` conjugates the twiddles.
  /// No normalization is applied (callers own the 1/n placement).
  /// row.size() must equal size().
  void transform(std::span<RComplex> row, bool inverse) const;

 private:
  int n_;
  std::vector<int> bit_reverse_;
  std::vector<double> twiddle_re_;
  std::vector<double> twiddle_im_;
};

}  // namespace resilience::apps
