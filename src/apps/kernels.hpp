// Shared distributed numerical kernels used by the mini-apps: partitioned
// BLAS-1 operations with deterministic global reductions, block
// allgather with padding for uneven partitions, halo exchange between
// neighbouring ranks of a 1D decomposition, and the cell-window driver
// the apps' element-wise loops run on.
//
// All arithmetic runs on fsefi::Real so it is counted and injectable —
// but not one Real operator at a time. The element-wise kernels here are
// *blocked*: they ask the installed FaultContext how many upcoming
// dynamic ops are guaranteed event-free (FaultContext::quiet_ops), run
// that window uncounted on the primary and shadow values in the exact
// same operation order, and account the whole block at once
// (FaultContext::on_block). Only the sub-window containing an event —
// an injection becoming due or the hang budget expiring — drops to
// per-operation instrumented Real arithmetic. Observables (op profiles,
// filtered indices, injection traces, contamination) are bit-identical
// to the per-op path: windows never contain an event, summation order is
// preserved exactly, and a window whose inputs carry any primary/shadow
// divergence while the rank is not yet contaminated falls back to the
// per-op path so first-contamination tracking fires at the same op.
//
// Blocked kernels: local_dot, sparse_row_dot, gather_dot, axpy and xpby
// (raw double loops), and FftPlan::transform (apps/fft.cpp), whose radix-2
// butterfly is accounted as 4 Mul + 3 Sub + 3 Add per butterfly.
//
// Cells: run_cells is the one cell-window driver. A cell is one loop
// iteration written once, generic over its arithmetic type: instantiated
// with Real it is the per-op form, with fsefi::PackedReal (primary and
// shadow in one SSE2 vector) the quiet-window form. Cells may run a
// different number of ops from call to call; each reports the ops it ran.
// Its cells: MG's 5-point stencils jacobi_sweep (5 Add + 3 Mul + 1 Sub
// per cell) and stencil_residual (1 Mul + 5 Sub, also LU's residual);
// PENNANT's six per-step loops (apps/pennant.cpp) and LU's forward and
// backward SSOR sweeps (2 Add + 2 Mul) and update (1 Add) (apps/lu.cpp).
#pragma once

#include <bit>
#include <cstdint>
#include <exception>
#include <span>
#include <type_traits>
#include <vector>

#include "fsefi/real.hpp"
#include "fsefi/transport.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/topology.hpp"

namespace resilience::apps {

using fsefi::Real;

/// Zero iff the value's primary and shadow bit patterns agree; blocked
/// kernels OR these over a window to detect any divergent input.
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
/// `kmax` ops. It may throw from a check, but only before it commits.
/// `diverged(begin, end)` returns nonzero when an input of cells
/// [begin, end) diverges, read before any of them runs (updates may be
/// in place).
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

/// Local dot product of two equal-length spans.
Real local_dot(std::span<const Real> a, std::span<const Real> b);

/// Row-gather dot product of a CSR-style row against a plain-double value
/// array: sum_k Real(vals[k]) * x[cols[k] - col_offset]. The blocked
/// equivalent of the mini-apps' sparse matvec inner loop.
Real sparse_row_dot(std::span<const double> vals,
                    std::span<const std::int64_t> cols,
                    std::span<const Real> x, std::int64_t col_offset = 0);

/// Same, for instrumented (Real-valued) matrix entries:
/// sum_k vals[k] * x[cols[k] - col_offset].
Real gather_dot(std::span<const Real> vals,
                std::span<const std::int64_t> cols, std::span<const Real> x,
                std::int64_t col_offset = 0);

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
