// Shared distributed numerical kernels used by the mini-apps: partitioned
// BLAS-1 operations with deterministic global reductions, block
// allgather with padding for uneven partitions, and halo exchange between
// neighbouring ranks of a 1D decomposition.
//
// All arithmetic runs on fsefi::Real so it is counted and injectable —
// but not one Real operator at a time. The element-wise kernels here are
// *blocked*: they ask the installed FaultContext how many upcoming
// dynamic ops are guaranteed event-free (FaultContext::quiet_ops), run
// that window as raw double arithmetic on the primary and shadow values
// in the exact same operation order, and account the whole block at once
// (FaultContext::on_block). Only the sub-window containing an event —
// an injection becoming due or the hang budget expiring — drops to
// per-operation instrumented Real arithmetic. Observables (op profiles,
// filtered indices, injection traces, contamination) are bit-identical
// to the per-op path: windows never contain an event, summation order is
// preserved exactly, and a window whose inputs carry any primary/shadow
// divergence while the rank is not yet contaminated falls back to the
// per-op path so first-contamination tracking fires at the same op.
//
// Blocked kernels: local_dot, sparse_row_dot, gather_dot, axpy and xpby;
// MG's 5-point stencils jacobi_sweep (5 Add + 3 Mul + 1 Sub per cell) and
// stencil_residual (1 Mul + 5 Sub per cell), whose windows are whole cells
// of a row block; and FftPlan::transform (apps/fft.cpp), whose radix-2
// butterfly is accounted as 4 Mul + 3 Sub + 3 Add per butterfly.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
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

/// Gather a block-partitioned vector of global length `n` onto all ranks.
/// Handles uneven partitions by padding blocks to the maximum block size.
/// `local` must be this rank's block under simmpi::block_partition(n, p, r).
std::vector<Real> allgather_blocks(simmpi::Comm& comm,
                                   std::span<const Real> local,
                                   std::int64_t n);

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
