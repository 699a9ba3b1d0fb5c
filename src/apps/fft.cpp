#include "apps/fft.hpp"

#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "apps/kernels.hpp"

namespace resilience::apps {

namespace {
bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

/// Dynamic ops in one radix-2 butterfly: t = w * hi is 4 Mul, 1 Sub and
/// 1 Add; hi = lo - t is 2 Sub; lo = lo + t is 2 Add.
constexpr std::uint64_t kButterflyOps = 10;
}  // namespace

FftPlan::FftPlan(int n) : n_(n) {
  if (!is_power_of_two(n) || n < 2) {
    throw std::invalid_argument("FftPlan: size must be a power of two >= 2");
  }
  bit_reverse_.assign(static_cast<std::size_t>(n), 0);
  const int log_n = static_cast<int>(std::round(std::log2(n)));
  for (int i = 0; i < n; ++i) {
    int rev = 0;
    for (int b = 0; b < log_n; ++b) {
      rev |= ((i >> b) & 1) << (log_n - 1 - b);
    }
    bit_reverse_[static_cast<std::size_t>(i)] = rev;
  }
  // Forward twiddles w^k = exp(-2*pi*i*k/n) for the largest stage; smaller
  // stages stride through this table.
  twiddle_re_.assign(static_cast<std::size_t>(n / 2), 0.0);
  twiddle_im_.assign(static_cast<std::size_t>(n / 2), 0.0);
  for (int k = 0; k < n / 2; ++k) {
    const double angle = -2.0 * std::numbers::pi * k / n;
    twiddle_re_[static_cast<std::size_t>(k)] = std::cos(angle);
    twiddle_im_[static_cast<std::size_t>(k)] = std::sin(angle);
  }
}

void FftPlan::transform(std::span<RComplex> row, bool inverse) const {
  if (static_cast<int>(row.size()) != n_) {
    throw std::invalid_argument("FftPlan::transform: wrong row length");
  }
  for (int i = 0; i < n_; ++i) {
    const int j = bit_reverse_[static_cast<std::size_t>(i)];
    if (i < j) {
      std::swap(row[static_cast<std::size_t>(i)],
                row[static_cast<std::size_t>(j)]);
    }
  }
  // The butterflies run as cells of run_cells on a stages x n/2 grid,
  // stage by stage and, within a stage, group by group as the radix-2
  // loops visit them. Each cell checks its inputs, then computes
  // t = w * hi, hi = lo - t, lo = lo + t, loading each operand from the
  // row where its op uses it: the per-op form then keeps no loaded
  // operand live across its out-of-line instrumented ops. The cell
  // captures plain values for the same reason.
  const int half_n = n_ / 2;
  const int stages = std::countr_zero(static_cast<unsigned>(n_));
  RComplex* const x = row.data();
  const double* const tw_re = twiddle_re_.data();
  const double* const tw_im = twiddle_im_.data();
  run_cells(
      static_cast<std::size_t>(stages) * static_cast<std::size_t>(half_n),
      half_n, kButterflyOps,
      [=](auto arith, CellPos at) {
        using T = typename decltype(arith)::type;
        using C = BasicComplex<T>;
        // Stage i pairs elements half = 2^i apart in groups of 2 * half;
        // cell j is butterfly k of group j / half, whose twiddle strides
        // the table by n / (2 * half).
        const int half = 1 << at.i;
        const int k = at.j & (half - 1);
        const auto lo = static_cast<std::size_t>(2 * (at.j - k) + k);
        const auto hi = lo + static_cast<std::size_t>(half);
        const auto idx = static_cast<std::size_t>(k) << (stages - 1 - at.i);
        const auto load = [](const RComplex& z) {
          return C{T(z.re), T(z.im)};
        };
        const auto store = [](const C& z) {
          return RComplex{static_cast<Real>(z.re), static_cast<Real>(z.im)};
        };
        InputCheck<T> in;
        in(x[lo].re, x[lo].im);
        in(x[hi].re, x[hi].im);
        in.check();
        const C w{T(tw_re[idx]), T(inverse ? -tw_im[idx] : tw_im[idx])};
        const C t = w * load(x[hi]);
        x[hi] = store(load(x[lo]) - t);
        x[lo] = store(load(x[lo]) + t);
        return CellOps{.add = 3, .sub = 3, .mul = 4};
      },
      checked_in_cell);
}

}  // namespace resilience::apps
