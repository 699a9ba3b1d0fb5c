// Shared distributed numerical kernels used by the mini-apps: partitioned
// BLAS-1 operations with deterministic global reductions, the sparse
// matvec, block allgather with padding for uneven partitions, halo
// exchange between neighbouring ranks of a 1D decomposition, and the
// cell-window driver every element-wise loop runs on.
//
// All arithmetic runs on fsefi::Real so it is counted and injectable,
// but not one Real operator at a time. Every element-wise loop of the
// apps runs as cells of run_cells (DESIGN.md §8 item 4): the driver asks
// the installed FaultContext how many upcoming dynamic ops are
// guaranteed event-free (FaultContext::quiet_ops), runs that window of
// cells on fsefi::PackedReal (primary and shadow in one SSE2 vector) in
// the exact same operation order, and accounts it at once
// (FaultContext::on_block). Only the cell that may hold an event (an
// injection becoming due or the hang budget expiring) runs on per-op
// instrumented Real arithmetic. Observables (op profiles, filtered
// indices, injection traces, contamination) are bit-identical to the
// per-op path: windows never contain an event, summation order is
// preserved exactly, and a cell reading a primary/shadow divergence
// while the rank is not yet contaminated runs per-op, so
// first-contamination tracking fires at the same op.
//
// A cell is one loop iteration written once, generic over its arithmetic
// type: instantiated with Real it is the per-op form, with PackedReal the
// quiet-window form. Cells may run a different number of ops from call
// to call; each reports the ops it ran. Divergence is found in one of two
// ways. A cell that reads and commits in one pass (the sparse matvec's
// rows, local_dot's chunks, axpy, xpby and the FFT's butterflies) checks
// the inputs it reads with InputCheck and throws before it commits. A
// loop whose cells read values other cells of the same window write, or
// whose inputs are cheaper to scan as ranges (MG's stencils, restriction
// and prolongation, PENNANT's per-step loops, LU's sweeps), passes
// run_cells a scan of each window's inputs instead.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "fsefi/real.hpp"
#include "fsefi/transport.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/topology.hpp"

namespace resilience::apps {

using fsefi::Real;

/// Zero iff the value's primary and shadow bit patterns agree; the
/// divergence scans of run_cells OR these over a window's inputs.
inline std::uint64_t diverged_bits(const Real& r) noexcept {
  return std::bit_cast<std::uint64_t>(r.value()) ^
         std::bit_cast<std::uint64_t>(r.shadow());
}

/// Zero iff no value of `v` diverges.
inline std::uint64_t diverged_bits(std::span<const Real> v) noexcept {
  std::uint64_t diff = 0;
  for (const Real& r : v) diff |= diverged_bits(r);
  return diff;
}

/// Zero iff no value of v[begin, end) diverges.
inline std::uint64_t diverged_bits(std::span<const Real> v, std::size_t begin,
                                   std::size_t end) noexcept {
  return diverged_bits(v.subspan(begin, end - begin));
}

// ---- cells ------------------------------------------------------------------

/// The ops one cell ran, by kind (summed over a window by run_cells).
struct CellOps {
  std::uint64_t add = 0;
  std::uint64_t sub = 0;
  std::uint64_t mul = 0;
  std::uint64_t div = 0;
  std::uint64_t sqrt = 0;

  CellOps& operator+=(const CellOps& o) noexcept {
    add += o.add;
    sub += o.sub;
    mul += o.mul;
    div += o.div;
    sqrt += o.sqrt;
    return *this;
  }
};

/// The cell run_cells is visiting: index c in visiting order, which is
/// row i, column j of a grid `cols` cells wide.
struct CellPos {
  int i = 0;
  int j = 0;
  std::size_t c = 0;
};

/// Selects a cell's arithmetic type: a cell is called with Arith<Real>
/// (per-op) or Arith<fsefi::PackedReal> (quiet window).
template <class T>
using Arith = std::type_identity<T>;

/// Runs cells 0 .. n-1, visited row-major on a grid `cols` cells wide, on
/// the quiet-window contract (DESIGN.md §8 item 4).
///
/// `cell(Arith<T>{}, CellPos)` computes one cell with arithmetic T,
/// commits its outputs and returns the ops it ran; a cell runs at most
/// `kmax` ops. It may throw from a check (InputCheck's included), but only
/// before it commits. `diverged(begin, end)` returns nonzero when an input
/// of cells [begin, end) diverges, read before any of them runs (updates
/// may be in place); cells that check their own inputs pass
/// checked_in_cell.
///
/// A window is quiet_ops(kmax * remaining) / kmax cells, run on
/// PackedReal and accounted with the ops its cells report. The cell that
/// may hold an event, a divergent window on a not-yet-contaminated rank
/// and the reference path run per-op. A cell that throws in a window is
/// rerun per-op after its window's completed cells are accounted, so it
/// throws with exact counts and contamination. With no context every
/// cell runs on PackedReal, uncounted.
template <class Cell, class Diverged>
void run_cells(std::size_t n, int cols, std::uint64_t kmax, Cell&& cell,
               Diverged&& diverged) {
  using fsefi::OpKind;
  using fsefi::PackedReal;
  CellPos at;
  const auto next = [&] {
    ++at.c;
    if (++at.j == cols) {
      at.j = 0;
      ++at.i;
    }
  };
  fsefi::FaultContext* ctx = fsefi::current_context();
  while (at.c < n) {
    // With no context the rest is one window.
    const std::size_t window =
        ctx == nullptr
            ? n - at.c
            : static_cast<std::size_t>(ctx->quiet_ops(kmax * (n - at.c)) /
                                       kmax);
    // Cells [at.c, per_op_end) run per-op: the cell that may hold an
    // event (or every cell on the reference path), a divergent window on
    // a not-yet-contaminated rank (so first-contamination tracking sees
    // the exact op), and a cell that failed a check in a window.
    std::size_t per_op_end = at.c + (window == 0 ? 1 : window);
    if (window != 0 && (ctx == nullptr || ctx->contaminated() ||
                        diverged(at.c, per_op_end) == 0)) {
      const std::size_t end = per_op_end;
      CellOps ops;
      try {
        for (; at.c < end; next()) ops += cell(Arith<PackedReal>{}, at);
      } catch (const std::exception&) {
        // Nothing of the failed cell is committed or accounted; rerun it
        // per-op to throw with exact counts and contamination.
        per_op_end = at.c + 1;
      }
      if (ctx != nullptr) {
        ctx->on_block(OpKind::Add, ops.add);
        ctx->on_block(OpKind::Sub, ops.sub);
        ctx->on_block(OpKind::Mul, ops.mul);
        ctx->on_block(OpKind::Div, ops.div);
        ctx->on_block(OpKind::Sqrt, ops.sqrt);
      }
    }
    for (; at.c < per_op_end; next()) cell(Arith<Real>{}, at);
  }
}

/// The `diverged` argument of run_cells for cells that check their own
/// inputs with InputCheck: no window is scanned ahead.
inline constexpr auto checked_in_cell = [](std::size_t, std::size_t) {
  return std::uint64_t{0};
};

/// Thrown by InputCheck::check; run_cells reruns the cell per-op.
struct DivergentInput : std::exception {};

/// The in-cell divergence check of a cell with arithmetic T. A cell loads
/// each Real input through operator(), which returns it as T and notes
/// whether it diverges; check(), called before the cell commits, throws
/// DivergentInput when one did on a rank not yet contaminated. Only the
/// quiet-window form (T = PackedReal) checks: per-op arithmetic observes
/// divergence itself.
template <class T>
class InputCheck {
 public:
  T operator()(const Real& r) noexcept {
    if constexpr (kPacked) {
      const T v(r);
      mask_.add(v);
      return v;
    } else {
      return r;
    }
  }
  /// Two inputs at once, checked together.
  std::pair<T, T> operator()(const Real& a, const Real& b) noexcept {
    if constexpr (kPacked) {
      const T u(a);
      const T v(b);
      mask_.add(u, v);
      return {u, v};
    } else {
      return {a, b};
    }
  }
  /// A plain double (never diverges) and an input.
  std::pair<T, T> operator()(double a, const Real& b) noexcept {
    return {T(a), (*this)(b)};
  }

  void check() const {
    if constexpr (kPacked) {
      if (mask_.any()) [[unlikely]] {
        const fsefi::FaultContext* ctx = fsefi::current_context();
        if (ctx != nullptr && !ctx->contaminated()) throw DivergentInput();
      }
    }
  }

 private:
  static constexpr bool kPacked = std::is_same_v<T, fsefi::PackedReal>;
  struct NoMask {};
  [[no_unique_address]] std::conditional_t<kPacked, fsefi::DivergenceMask,
                                           NoMask>
      mask_;
};

/// Sparse matvec over CSR rows: out[i] = sum_k v[k] * x[c[k] - col_offset]
/// for (v, c) = row(i), i < out.size(), summed from 0 in entry order (per
/// entry 1 Mul, then 1 Add). `row(i)` returns the row's values (double or
/// Real) and columns as a pair of spans, at most `widest` entries. One
/// cell per row.
template <class Row>
void csr_matvec(Row&& row, std::size_t widest, std::span<const Real> x,
                std::int64_t col_offset, std::span<Real> out) {
  run_cells(
      out.size(), static_cast<int>(out.size()), 2 * widest,
      [&](auto arith, CellPos at) {
        using T = typename decltype(arith)::type;
        const auto [vals, cols] = row(at.c);
        InputCheck<T> in;
        T acc(0.0);
        for (std::size_t k = 0; k < vals.size(); ++k) {
          const auto [v, xk] =
              in(vals[k], x[static_cast<std::size_t>(cols[k] - col_offset)]);
          acc += v * xk;
        }
        in.check();
        out[at.c] = static_cast<Real>(acc);
        return CellOps{.add = vals.size(), .mul = vals.size()};
      },
      checked_in_cell);
}

/// The most entries any row of a CSR row-pointer array holds.
template <class Index>
std::size_t widest_row(const std::vector<Index>& row_ptr) {
  std::size_t widest = 0;
  for (std::size_t i = 0; i + 1 < row_ptr.size(); ++i) {
    widest = std::max(widest, static_cast<std::size_t>(row_ptr[i + 1] -
                                                       row_ptr[i]));
  }
  return widest;
}

/// Local dot product of two equal-length spans, summed from 0 in order.
Real local_dot(std::span<const Real> a, std::span<const Real> b);

/// Global dot product over a partitioned vector: local dot + allreduce.
Real global_dot(simmpi::Comm& comm, std::span<const Real> a,
                std::span<const Real> b);

/// y += alpha * x (elementwise on the local partition).
void axpy(Real alpha, std::span<const Real> x, std::span<Real> y);

/// y = x + beta * y.
void xpby(std::span<const Real> x, Real beta, std::span<Real> y);

/// Global 2-norm of a partitioned vector.
Real global_norm2(simmpi::Comm& comm, std::span<const Real> x);

/// Gather a block-partitioned vector of global length `n` onto all ranks
/// and return a view of it. `local` must be this rank's block under
/// simmpi::block_partition(n, p, r). On one rank the view is `local`
/// itself; otherwise it is `scratch`, which callers keep across calls so
/// its capacity is reused. Equal blocks gather straight into the global
/// layout; uneven ones travel padded to the largest block and are
/// compacted in place. The view lives until `scratch` or `local` changes.
std::span<const Real> allgather_blocks(simmpi::Comm& comm,
                                       std::span<const Real> local,
                                       std::int64_t n,
                                       std::vector<Real>& scratch);

/// Exchange one value-row of width `width` with the previous and next rank
/// of a 1D chain (rank-1 and rank+1; skipped at the ends). On return,
/// `from_prev`/`from_next` hold the neighbour rows (untouched at ends).
void exchange_halo_rows(simmpi::Comm& comm, int tag_base,
                        std::span<const Real> to_prev,
                        std::span<const Real> to_next,
                        std::span<Real> from_prev, std::span<Real> from_next,
                        int prev_rank, int next_rank);

/// One rank's row block of a `rows` x `cols` grid of interior points that
/// is block-partitioned by rows: this rank owns global rows
/// [lo, lo + count), stored row-major.
struct RowBlock {
  int lo = 0;
  int count = 0;
  int rows = 0;
  int cols = 0;
};

/// One damped-Jacobi sweep of the 5-point Laplacian (h = 1, zero
/// Dirichlet boundary) over `block`, per cell
///   gs   = 0.25 * ((((f + up) + down) + left) + right)
///   next = (1 - omega) * u + omega * gs
/// `above`/`below` are the halo rows read where the block ends inside the
/// grid; past the grid's edge a neighbour is zero. `next` must not alias
/// `u` or `f`.
void jacobi_sweep(RowBlock block, std::span<const Real> u,
                  std::span<const Real> f, std::span<const Real> above,
                  std::span<const Real> below, double omega,
                  std::span<Real> next);

/// Residual of the same operator over `block`, per cell
///   r = f - ((((4 * u - up) - down) - left) - right)
/// `r` must not alias `u` or `f`.
void stencil_residual(RowBlock block, std::span<const Real> u,
                      std::span<const Real> f, std::span<const Real> above,
                      std::span<const Real> below, std::span<Real> r);

/// Throw NumericalError if `v` is not finite. `what` names the guarded
/// quantity in the error message.
void guard_finite(Real v, const char* what);

}  // namespace resilience::apps
