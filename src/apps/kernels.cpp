#include "apps/kernels.hpp"

#include <algorithm>

#include "apps/app.hpp"

namespace resilience::apps {

Real local_dot(std::span<const Real> a, std::span<const Real> b) {
  // Chunk cells carry the accumulator: it crosses a cell boundary once per
  // chunk, and the sum runs in element order as acc += a[i] * b[i].
  constexpr std::size_t kChunk = 128;
  const std::size_t n = a.size();
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  Real acc = 0.0;
  run_cells(
      chunks, static_cast<int>(chunks), 2 * kChunk,
      [&](auto arith, CellPos at) {
        using T = typename decltype(arith)::type;
        const std::size_t lo = at.c * kChunk;
        const std::size_t hi = std::min(n, lo + kChunk);
        // acc needs no check: only a per-op chunk can make it diverge, and
        // that op contaminates the rank.
        InputCheck<T> in;
        T sum(acc);
        for (std::size_t i = lo; i < hi; ++i) {
          const auto [ai, bi] = in(a[i], b[i]);
          sum += ai * bi;
        }
        in.check();
        acc = static_cast<Real>(sum);
        return CellOps{.add = hi - lo, .mul = hi - lo};
      },
      checked_in_cell);
  return acc;
}

Real global_dot(simmpi::Comm& comm, std::span<const Real> a,
                std::span<const Real> b) {
  return comm.allreduce_value(local_dot(a, b), simmpi::Sum{});
}

void axpy(Real alpha, std::span<const Real> x, std::span<Real> y) {
  run_cells(
      x.size(), static_cast<int>(x.size()), 2,
      [&](auto arith, CellPos at) {
        using T = typename decltype(arith)::type;
        InputCheck<T> in;
        auto [yi, xi] = in(y[at.c], x[at.c]);
        yi += in(alpha) * xi;
        in.check();
        y[at.c] = static_cast<Real>(yi);
        return CellOps{.add = 1, .mul = 1};
      },
      checked_in_cell);
}

void xpby(std::span<const Real> x, Real beta, std::span<Real> y) {
  run_cells(
      x.size(), static_cast<int>(x.size()), 2,
      [&](auto arith, CellPos at) {
        using T = typename decltype(arith)::type;
        InputCheck<T> in;
        const auto [xi, yi] = in(x[at.c], y[at.c]);
        const T bi = in(beta);
        in.check();
        y[at.c] = static_cast<Real>(xi + bi * yi);
        return CellOps{.add = 1, .mul = 1};
      },
      checked_in_cell);
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
