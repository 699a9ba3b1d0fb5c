#include "apps/kernels.hpp"

#include <algorithm>

#include "apps/app.hpp"

namespace resilience::apps {

namespace {

using fsefi::FaultContext;
using fsefi::OpKind;

/// True when a window holding these values may run as one raw block: the
/// rank is already contaminated (divergence tracking is latched, and the
/// raw block computes value-identical results in the same order), or no
/// input diverges (then no result can diverge either, so the per-op
/// observe_result calls being skipped could not have fired).
inline bool may_block(const FaultContext& ctx, std::uint64_t input_diff) noexcept {
  return ctx.contaminated() || input_diff == 0;
}

}  // namespace

Real local_dot(std::span<const Real> a, std::span<const Real> b) {
  const std::size_t n = a.size();
  FaultContext* ctx = fsefi::current_context();
  if (ctx == nullptr) {
    // Uninstrumented: same math, primary and shadow, no counting.
    double v = 0.0, s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      v += a[i].value() * b[i].value();
      s += a[i].shadow() * b[i].shadow();
    }
    return Real::corrupted(v, s);
  }
  Real acc = 0.0;
  std::size_t i = 0;
  while (i < n) {
    const auto window =
        static_cast<std::size_t>(ctx->quiet_ops((n - i) * 2) / 2);
    if (window == 0) {
      // An event may fire on this element (or the reference path is on):
      // per-op instrumented arithmetic.
      acc += a[i] * b[i];
      ++i;
      continue;
    }
    const std::size_t end = i + window;
    double v = acc.value(), s = acc.shadow();
    std::uint64_t diff = diverged_bits(acc);
    for (std::size_t k = i; k < end; ++k) {
      v += a[k].value() * b[k].value();
      s += a[k].shadow() * b[k].shadow();
      diff |= diverged_bits(a[k]) | diverged_bits(b[k]);
    }
    if (!may_block(*ctx, diff)) {
      // Divergent inputs on a not-yet-contaminated rank: discard the raw
      // block (acc is untouched) and redo it per-op so first-contamination
      // tracking observes the exact operation.
      for (; i < end; ++i) acc += a[i] * b[i];
      continue;
    }
    ctx->on_block(OpKind::Mul, window);
    ctx->on_block(OpKind::Add, window);
    acc = Real::corrupted(v, s);
    i = end;
  }
  return acc;
}

Real sparse_row_dot(std::span<const double> vals,
                    std::span<const std::int64_t> cols,
                    std::span<const Real> x, std::int64_t col_offset) {
  const std::size_t n = vals.size();
  FaultContext* ctx = fsefi::current_context();
  if (ctx == nullptr) {
    double v = 0.0, s = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const Real& xe = x[static_cast<std::size_t>(cols[k] - col_offset)];
      v += vals[k] * xe.value();
      s += vals[k] * xe.shadow();
    }
    return Real::corrupted(v, s);
  }
  Real acc = 0.0;
  std::size_t k = 0;
  while (k < n) {
    const auto window =
        static_cast<std::size_t>(ctx->quiet_ops((n - k) * 2) / 2);
    if (window == 0) {
      acc += Real(vals[k]) * x[static_cast<std::size_t>(cols[k] - col_offset)];
      ++k;
      continue;
    }
    const std::size_t end = k + window;
    double v = acc.value(), s = acc.shadow();
    std::uint64_t diff = diverged_bits(acc);
    for (std::size_t e = k; e < end; ++e) {
      const Real& xe = x[static_cast<std::size_t>(cols[e] - col_offset)];
      v += vals[e] * xe.value();
      s += vals[e] * xe.shadow();
      diff |= diverged_bits(xe);
    }
    if (!may_block(*ctx, diff)) {
      for (; k < end; ++k) {
        acc +=
            Real(vals[k]) * x[static_cast<std::size_t>(cols[k] - col_offset)];
      }
      continue;
    }
    ctx->on_block(OpKind::Mul, window);
    ctx->on_block(OpKind::Add, window);
    acc = Real::corrupted(v, s);
    k = end;
  }
  return acc;
}

Real gather_dot(std::span<const Real> vals,
                std::span<const std::int64_t> cols, std::span<const Real> x,
                std::int64_t col_offset) {
  const std::size_t n = vals.size();
  FaultContext* ctx = fsefi::current_context();
  if (ctx == nullptr) {
    double v = 0.0, s = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const Real& xe = x[static_cast<std::size_t>(cols[k] - col_offset)];
      v += vals[k].value() * xe.value();
      s += vals[k].shadow() * xe.shadow();
    }
    return Real::corrupted(v, s);
  }
  Real acc = 0.0;
  std::size_t k = 0;
  while (k < n) {
    const auto window =
        static_cast<std::size_t>(ctx->quiet_ops((n - k) * 2) / 2);
    if (window == 0) {
      acc += vals[k] * x[static_cast<std::size_t>(cols[k] - col_offset)];
      ++k;
      continue;
    }
    const std::size_t end = k + window;
    double v = acc.value(), s = acc.shadow();
    std::uint64_t diff = diverged_bits(acc);
    for (std::size_t e = k; e < end; ++e) {
      const Real& xe = x[static_cast<std::size_t>(cols[e] - col_offset)];
      v += vals[e].value() * xe.value();
      s += vals[e].shadow() * xe.shadow();
      diff |= diverged_bits(vals[e]) | diverged_bits(xe);
    }
    if (!may_block(*ctx, diff)) {
      for (; k < end; ++k) {
        acc += vals[k] * x[static_cast<std::size_t>(cols[k] - col_offset)];
      }
      continue;
    }
    ctx->on_block(OpKind::Mul, window);
    ctx->on_block(OpKind::Add, window);
    acc = Real::corrupted(v, s);
    k = end;
  }
  return acc;
}

Real global_dot(simmpi::Comm& comm, std::span<const Real> a,
                std::span<const Real> b) {
  return comm.allreduce_value(local_dot(a, b), simmpi::Sum{});
}

void axpy(Real alpha, std::span<const Real> x, std::span<Real> y) {
  const std::size_t n = x.size();
  FaultContext* ctx = fsefi::current_context();
  if (ctx == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = Real::corrupted(y[i].value() + alpha.value() * x[i].value(),
                             y[i].shadow() + alpha.shadow() * x[i].shadow());
    }
    return;
  }
  std::size_t i = 0;
  while (i < n) {
    const auto window =
        static_cast<std::size_t>(ctx->quiet_ops((n - i) * 2) / 2);
    if (window == 0) {
      y[i] += alpha * x[i];
      ++i;
      continue;
    }
    const std::size_t end = i + window;
    // y is updated in place, so divergence is scanned *before* computing
    // (the read-only dot kernels can instead fuse the scan and redo).
    std::uint64_t diff = diverged_bits(alpha);
    for (std::size_t k = i; k < end; ++k) {
      diff |= diverged_bits(x[k]) | diverged_bits(y[k]);
    }
    if (!may_block(*ctx, diff)) {
      for (; i < end; ++i) y[i] += alpha * x[i];
      continue;
    }
    const double av = alpha.value(), as = alpha.shadow();
    for (std::size_t k = i; k < end; ++k) {
      y[k] = Real::corrupted(y[k].value() + av * x[k].value(),
                             y[k].shadow() + as * x[k].shadow());
    }
    ctx->on_block(OpKind::Mul, window);
    ctx->on_block(OpKind::Add, window);
    i = end;
  }
}

void xpby(std::span<const Real> x, Real beta, std::span<Real> y) {
  const std::size_t n = x.size();
  FaultContext* ctx = fsefi::current_context();
  if (ctx == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = Real::corrupted(x[i].value() + beta.value() * y[i].value(),
                             x[i].shadow() + beta.shadow() * y[i].shadow());
    }
    return;
  }
  std::size_t i = 0;
  while (i < n) {
    const auto window =
        static_cast<std::size_t>(ctx->quiet_ops((n - i) * 2) / 2);
    if (window == 0) {
      y[i] = x[i] + beta * y[i];
      ++i;
      continue;
    }
    const std::size_t end = i + window;
    std::uint64_t diff = diverged_bits(beta);
    for (std::size_t k = i; k < end; ++k) {
      diff |= diverged_bits(x[k]) | diverged_bits(y[k]);
    }
    if (!may_block(*ctx, diff)) {
      for (; i < end; ++i) y[i] = x[i] + beta * y[i];
      continue;
    }
    const double bv = beta.value(), bs = beta.shadow();
    for (std::size_t k = i; k < end; ++k) {
      y[k] = Real::corrupted(x[k].value() + bv * y[k].value(),
                             x[k].shadow() + bs * y[k].shadow());
    }
    ctx->on_block(OpKind::Mul, window);
    ctx->on_block(OpKind::Add, window);
    i = end;
  }
}

namespace {

/// Runs a 5-point stencil over `g` as cells of run_cells. `expr` is the
/// stencil's per-cell expression, generic over its arithmetic type, and
/// runs `ops`; its result goes to `out`, never an input. A neighbour is u
/// inside the block, a halo row past the block's edge and zero past the
/// grid's edge.
template <class Expr>
void stencil_cells(RowBlock g, std::span<const Real> u,
                   std::span<const Real> f, std::span<const Real> above,
                   std::span<const Real> below, std::span<Real> out,
                   CellOps ops, Expr expr) {
  const auto cols = static_cast<std::size_t>(g.cols);
  const std::size_t cells = static_cast<std::size_t>(g.count) * cols;
  run_cells(
      cells, g.cols, ops.add + ops.sub + ops.mul,
      [&](auto arith, CellPos at) {
        using T = typename decltype(arith)::type;
        const auto col = static_cast<std::size_t>(at.j);
        const T up = (at.i > 0) ? T(u[at.c - cols])
                                : (g.lo + at.i > 0 ? T(above[col]) : T(0.0));
        const T down = (at.i + 1 < g.count)
                           ? T(u[at.c + cols])
                           : (g.lo + at.i + 1 < g.rows ? T(below[col])
                                                       : T(0.0));
        const T left = (at.j > 0) ? T(u[at.c - 1]) : T(0.0);
        const T right = (at.j + 1 < g.cols) ? T(u[at.c + 1]) : T(0.0);
        out[at.c] = static_cast<Real>(
            expr(T(u[at.c]), T(f[at.c]), up, down, left, right));
        return ops;
      },
      [&](std::size_t begin, std::size_t end) {
        const std::size_t lo = begin > cols ? begin - cols : 0;
        const std::size_t hi = std::min(cells, end + cols);
        std::uint64_t diff =
            diverged_bits(u, lo, hi) | diverged_bits(f, begin, end);
        if (begin < cols) diff |= diverged_bits(above);
        if (end + cols > cells) diff |= diverged_bits(below);
        return diff;
      });
}

}  // namespace

void jacobi_sweep(RowBlock block, std::span<const Real> u,
                  std::span<const Real> f, std::span<const Real> above,
                  std::span<const Real> below, double omega,
                  std::span<Real> next) {
  // 4 Add for the neighbour sum, 1 Mul by 0.25, then 1 Sub (1 - omega),
  // 2 Mul and 1 Add for the damped update.
  stencil_cells(block, u, f, above, below, next,
                {.add = 5, .sub = 1, .mul = 3},
                [omega](auto uc, auto fc, auto up, auto down, auto left,
                        auto right) {
                  using T = decltype(uc);
                  const T gs = T(0.25) * (fc + up + down + left + right);
                  return (T(1.0) - T(omega)) * uc + T(omega) * gs;
                });
}

void stencil_residual(RowBlock block, std::span<const Real> u,
                      std::span<const Real> f, std::span<const Real> above,
                      std::span<const Real> below, std::span<Real> r) {
  // 1 Mul and 4 Sub for A u, 1 Sub for f - A u.
  stencil_cells(block, u, f, above, below, r, {.sub = 5, .mul = 1},
                [](auto uc, auto fc, auto up, auto down, auto left,
                   auto right) {
                  using T = decltype(uc);
                  const T au = T(4.0) * uc - up - down - left - right;
                  return fc - au;
                });
}

Real global_norm2(simmpi::Comm& comm, std::span<const Real> x) {
  return sqrt(global_dot(comm, x, x));
}

std::span<const Real> allgather_blocks(simmpi::Comm& comm,
                                       std::span<const Real> local,
                                       std::int64_t n,
                                       std::vector<Real>& scratch) {
  const int p = comm.size();
  if (p == 1) return local;
  const auto un = static_cast<std::size_t>(n);
  if (n % p == 0) {
    // Equal blocks: the gathered layout is the global layout.
    scratch.resize(un);
    comm.allgather(local, std::span<Real>(scratch));
    return scratch;
  }
  // Uneven blocks travel padded to the largest block, so every message
  // (and the delivered-Real stream a payload fault samples) keeps that
  // size. This rank's padded block is its own slot of the gathered
  // buffer; afterwards the blocks are compacted forward in place.
  const auto max_block = static_cast<std::size_t>((n + p - 1) / p);
  const auto base = static_cast<std::size_t>(n / p);
  const auto extra = static_cast<std::size_t>(n % p);
  scratch.resize(max_block * static_cast<std::size_t>(p));
  const auto mine = std::span<Real>(scratch).subspan(
      static_cast<std::size_t>(comm.rank()) * max_block, max_block);
  std::copy(local.begin(), local.end(), mine.begin());
  std::fill(mine.begin() + static_cast<std::ptrdiff_t>(local.size()),
            mine.end(), Real(0.0));
  comm.allgather(std::span<const Real>(mine), std::span<Real>(scratch));
  // Block r holds base + (r < extra) elements and starts at the sum of
  // the earlier blocks, left of its padded slot for every r > 0.
  std::size_t lo = max_block;  // block 0 is full-size and already in place
  for (std::size_t r = 1; r < static_cast<std::size_t>(p); ++r) {
    const std::size_t count = base + (r < extra ? 1 : 0);
    const auto first =
        scratch.begin() + static_cast<std::ptrdiff_t>(r * max_block);
    std::copy(first, first + static_cast<std::ptrdiff_t>(count),
              scratch.begin() + static_cast<std::ptrdiff_t>(lo));
    lo += count;
  }
  scratch.resize(un);
  return scratch;
}

void exchange_halo_rows(simmpi::Comm& comm, int tag_base,
                        std::span<const Real> to_prev,
                        std::span<const Real> to_next,
                        std::span<Real> from_prev, std::span<Real> from_next,
                        int prev_rank, int next_rank) {
  // Standard nonblocking halo pattern: post the receives, push the sends
  // (buffered), complete — deadlock-free without pairwise ordering tricks.
  simmpi::Request reqs[2];
  int nreqs = 0;
  if (prev_rank >= 0) {
    reqs[nreqs++] = comm.irecv(prev_rank, tag_base + 1, from_prev);
  }
  if (next_rank >= 0) {
    reqs[nreqs++] = comm.irecv(next_rank, tag_base, from_next);
  }
  if (prev_rank >= 0) comm.send(prev_rank, tag_base, to_prev);
  if (next_rank >= 0) comm.send(next_rank, tag_base + 1, to_next);
  simmpi::Comm::wait_all(std::span<simmpi::Request>(reqs, static_cast<std::size_t>(nreqs)));
}

void guard_finite(Real v, const char* what) {
  if (!isfinite(v)) {
    throw NumericalError(std::string(what) + " became non-finite");
  }
}

}  // namespace resilience::apps
