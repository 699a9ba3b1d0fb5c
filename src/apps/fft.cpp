#include "apps/fft.hpp"

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
  // The butterflies run as a blocked kernel (apps/kernels.hpp): quiet
  // windows of whole butterflies as raw double arithmetic on primary and
  // shadow, per-op RComplex arithmetic at window edges, under divergence
  // and on the reference path. Without a context the whole group is one
  // raw window (the same math as uninstrumented Real ops).
  fsefi::FaultContext* ctx = fsefi::current_context();
  for (int len = 2; len <= n_; len <<= 1) {
    const int half = len / 2;
    const auto stride = static_cast<std::size_t>(n_ / len);
    for (int start = 0; start < n_; start += len) {
      RComplex* lo = row.data() + start;
      RComplex* hi = lo + half;
      const auto twiddle = [&](int k) {
        const std::size_t idx = static_cast<std::size_t>(k) * stride;
        return RComplex{fsefi::Real(twiddle_re_[idx]),
                        fsefi::Real(inverse ? -twiddle_im_[idx]
                                            : twiddle_im_[idx])};
      };
      const auto butterfly = [&](int k) {
        const RComplex t = twiddle(k) * hi[k];
        hi[k] = lo[k] - t;
        lo[k] = lo[k] + t;
      };
      int k = 0;
      while (k < half) {
        const auto remaining = static_cast<std::uint64_t>(half - k);
        const int window =
            ctx == nullptr
                ? half - k
                : static_cast<int>(ctx->quiet_ops(kButterflyOps * remaining) /
                                   kButterflyOps);
        if (window == 0) {
          butterfly(k++);
          continue;
        }
        const int end = k + window;
        if (ctx != nullptr && !ctx->contaminated()) {
          // In-place update: scan the window's inputs before computing, and
          // run a window holding any divergence per-op so first-
          // contamination tracking fires at the same op.
          std::uint64_t diff = 0;
          for (int j = k; j < end; ++j) {
            diff |= diverged_bits(lo[j].re) | diverged_bits(lo[j].im) |
                    diverged_bits(hi[j].re) | diverged_bits(hi[j].im);
          }
          if (diff != 0) {
            for (; k < end; ++k) butterfly(k);
            continue;
          }
        }
        for (int j = k; j < end; ++j) {
          const RComplex w = twiddle(j);
          const double wr = w.re.value();
          const double wi = w.im.value();
          const RComplex a = lo[j];
          const RComplex b = hi[j];
          // Same expression order as the per-op path: t = w * hi, then
          // hi = lo - t and lo = lo + t.
          const double tr = wr * b.re.value() - wi * b.im.value();
          const double ti = wr * b.im.value() + wi * b.re.value();
          const double tr_s = wr * b.re.shadow() - wi * b.im.shadow();
          const double ti_s = wr * b.im.shadow() + wi * b.re.shadow();
          hi[j] = {Real::corrupted(a.re.value() - tr, a.re.shadow() - tr_s),
                   Real::corrupted(a.im.value() - ti, a.im.shadow() - ti_s)};
          lo[j] = {Real::corrupted(a.re.value() + tr, a.re.shadow() + tr_s),
                   Real::corrupted(a.im.value() + ti, a.im.shadow() + ti_s)};
        }
        if (ctx != nullptr) {
          const auto n = static_cast<std::uint64_t>(window);
          ctx->on_block(fsefi::OpKind::Mul, 4 * n);
          ctx->on_block(fsefi::OpKind::Sub, 3 * n);
          ctx->on_block(fsefi::OpKind::Add, 3 * n);
        }
        k = end;
      }
    }
  }
}

}  // namespace resilience::apps
