#include "apps/cg.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "apps/kernels.hpp"
#include "apps/trial_control.hpp"

namespace resilience::apps {

namespace {

/// Local rows of the sparse matvec q = A * x_full.
void local_spmv(const SparseMatrix& a, const simmpi::BlockRange& rows,
                std::size_t widest, std::span<const Real> x_full,
                std::span<Real> q) {
  csr_matvec(
      [&](std::size_t i) {
        const auto g = rows.lo + static_cast<std::int64_t>(i);
        return std::pair{a.row_vals(g), a.row_cols(g)};
      },
      widest, x_full, 0, q);
}

/// Partial matvec of one 2D block: rows in `rows`, columns restricted to
/// `cols` with x given as that column segment. CSR columns are sorted, so
/// the restriction is the contiguous subrange [cols.lo, cols.hi) found by
/// binary search — the dynamic-op stream (ops for matching entries, in
/// column order) is exactly the one the per-entry `contains` filter made.
void block_spmv(const SparseMatrix& a, const simmpi::BlockRange& rows,
                const simmpi::BlockRange& cols, std::size_t widest,
                std::span<const Real> x_seg, std::span<Real> w) {
  csr_matvec(
      [&](std::size_t i) {
        const auto g = rows.lo + static_cast<std::int64_t>(i);
        const auto col_idx = a.row_cols(g);
        const auto* begin = std::lower_bound(
            col_idx.data(), col_idx.data() + col_idx.size(), cols.lo);
        const auto* end = std::lower_bound(
            begin, col_idx.data() + col_idx.size(), cols.hi);
        const auto first = static_cast<std::size_t>(begin - col_idx.data());
        const auto count = static_cast<std::size_t>(end - begin);
        return std::pair{a.row_vals(g).subspan(first, count),
                         col_idx.subspan(first, count)};
      },
      widest, x_seg, cols.lo, w);
}

/// Largest integer square root if p is a perfect square, else 0.
int exact_sqrt(int p) {
  const int r = static_cast<int>(std::lround(std::sqrt(static_cast<double>(p))));
  return r * r == p ? r : 0;
}

}  // namespace

CgApp::Config CgApp::config_for_class(const std::string& size_class) {
  Config cfg;
  if (size_class.empty() || size_class == "S") {
    return cfg;  // defaults above
  }
  if (size_class == "B") {
    cfg.n = 512;
    cfg.row_nonzeros = 8;
    cfg.outer_iters = 4;
    cfg.cg_iters = 10;
    cfg.shift = 20.0;
    return cfg;
  }
  if (size_class == "C") {
    // Sized for 1024-rank campaigns under the fiber scheduler (one row
    // per rank at full width); few iterations keep a trial affordable.
    cfg.n = 1024;
    cfg.row_nonzeros = 8;
    cfg.outer_iters = 2;
    cfg.cg_iters = 8;
    cfg.shift = 20.0;
    return cfg;
  }
  if (size_class == "2D") {
    cfg.n = 256;
    cfg.row_nonzeros = 32;
    cfg.decomposition = Decomposition::TwoD;
    return cfg;
  }
  if (size_class == "B2D") {
    cfg.n = 512;
    cfg.row_nonzeros = 80;
    cfg.shift = 40.0;
    cfg.decomposition = Decomposition::TwoD;
    return cfg;
  }
  throw std::invalid_argument("CG: unknown size class " + size_class);
}

CgApp::CgApp(Config config, std::string size_class)
    : config_(config),
      size_class_(std::move(size_class)),
      matrix_(make_spd_matrix(config.n, config.row_nonzeros, config.shift,
                              config.matrix_seed)) {}

bool CgApp::supports(int nranks) const {
  if (nranks < 1 || nranks > config_.n) return false;
  if (config_.decomposition == Decomposition::OneD || nranks == 1) return true;
  // 2D: perfect-square process grid with aligned sub-blocks.
  const int r = exact_sqrt(nranks);
  return r > 0 && config_.n % nranks == 0;
}

AppResult CgApp::run(simmpi::Comm& comm) const {
  if (config_.decomposition == Decomposition::TwoD && comm.size() > 1) {
    return run_2d(comm);
  }
  return run_1d(comm);
}

AppResult CgApp::run_1d(simmpi::Comm& comm) const {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::int64_t n = config_.n;
  const auto rows = simmpi::block_partition(n, p, rank);
  const auto local_n = static_cast<std::size_t>(rows.count());
  const std::size_t widest = widest_row(matrix_.row_ptr);

  // Power iteration state: x is the current normalized eigenvector guess.
  std::vector<Real> x(local_n, Real(1.0));
  std::vector<Real> z(local_n), r(local_n), d(local_n), q(local_n);
  std::vector<Real> full;  // allgather_blocks' reused gather buffer

  Real zeta = 0.0;
  Real rnorm = 0.0;

  // Boundary hook (DESIGN.md §9): the end of an outer iteration is a
  // global sync point, and x/zeta/rnorm are the live state — z, r, d, q
  // and rho are fully recomputed at the top of the next iteration.
  TrialControl* ctl = current_trial_control();
  auto views = [&] {
    return std::array<StateView, 3>{StateView::reals(x),
                                    StateView::real(zeta),
                                    StateView::real(rnorm)};
  };
  int outer = 0;
  if (ctl != nullptr) {
    const auto v = views();
    outer = ctl->begin(v);
  }

  for (; outer < config_.outer_iters; ++outer) {
    // ---- CG solve of A z = x with a fixed step count (NPB cgitmax) ----
    std::fill(z.begin(), z.end(), Real(0.0));
    r.assign(x.begin(), x.end());
    d.assign(r.begin(), r.end());
    Real rho = global_dot(comm, r, r);

    for (int it = 0; it < config_.cg_iters; ++it) {
      const auto d_full = allgather_blocks(comm, d, n, full);
      local_spmv(matrix_, rows, widest, d_full, q);
      const Real alpha = rho / global_dot(comm, d, q);
      axpy(alpha, d, z);
      axpy(-alpha, q, r);
      const Real rho_new = global_dot(comm, r, r);
      const Real beta = rho_new / rho;
      rho = rho_new;
      xpby(r, beta, d);
    }

    // Final residual ||x - A z|| of this solve (NPB's rnorm).
    {
      const auto z_full = allgather_blocks(comm, z, n, full);
      local_spmv(matrix_, rows, widest, z_full, q);
      std::vector<Real> res(local_n);
      for (std::size_t i = 0; i < local_n; ++i) res[i] = x[i] - q[i];
      rnorm = global_norm2(comm, res);
      guard_finite(rnorm, "CG residual norm");
    }

    // ---- eigenvalue estimate and re-normalization ----
    const Real xz = global_dot(comm, x, z);
    zeta = Real(config_.shift) + Real(1.0) / xz;
    guard_finite(zeta, "CG zeta");
    const Real znorm = global_norm2(comm, z);
    const Real inv = Real(1.0) / znorm;
    for (std::size_t i = 0; i < local_n; ++i) x[i] = z[i] * inv;

    if (ctl != nullptr) {
      const auto v = views();
      if (!ctl->boundary(comm, outer, v)) return {};
    }
  }

  AppResult result;
  result.iterations = config_.outer_iters * config_.cg_iters;
  result.signature = {zeta.value(), rnorm.value()};
  return result;
}

AppResult CgApp::run_2d(simmpi::Comm& comm) const {
  const int p = comm.size();
  const int grid = exact_sqrt(p);
  if (grid == 0 || config_.n % p != 0) {
    throw NumericalError("CG 2D: ranks must form a perfect square dividing n");
  }
  const int gi = comm.rank() / grid;  // process-grid row
  const int gj = comm.rank() % grid;  // process-grid column
  simmpi::Comm row_comm = comm.split(gi, gj);  // ranks sharing my rows
  simmpi::Comm col_comm = comm.split(100 + gj, gi);  // sharing my columns

  const std::int64_t n = config_.n;
  const auto rows = simmpi::block_partition(n, grid, gi);
  const auto cols = simmpi::block_partition(n, grid, gj);
  const auto m = static_cast<std::size_t>(rows.count());  // n / grid
  const auto sub = m / static_cast<std::size_t>(grid);    // n / p
  const std::size_t widest = widest_row(matrix_.row_ptr);
  // My global sub-block of the n/p-wise vector partition: index gi*grid+gj,
  // i.e. elements [rows.lo + gj*sub, rows.lo + (gj+1)*sub).
  const int transpose_partner = gj * grid + gi;
  constexpr int kTransposeTag = 40;
  constexpr int kMergeTag = 41;

  // Assemble the column segment d[cols_gj] from the distributed sub-blocks:
  // transpose exchange with (gj, gi), then allgather along my column group.
  auto assemble_segment = [&](std::span<const Real> d_sub) {
    std::vector<Real> transposed(sub);
    if (transpose_partner == comm.rank()) {
      std::copy(d_sub.begin(), d_sub.end(), transposed.begin());
    } else {
      comm.sendrecv(transpose_partner, kTransposeTag, d_sub,
                    transpose_partner, kTransposeTag,
                    std::span<Real>(transposed));
    }
    std::vector<Real> segment(m);
    col_comm.allgather(std::span<const Real>(transposed),
                       std::span<Real>(segment));
    return segment;
  };

  // Distributed matvec: q_sub = (A d)_sub. Local partials over my block,
  // then the row-group merge: every rank ships the chunk each peer owns
  // and sums the chunks it receives — NPB CG's partial-sum exchange, the
  // parallel-unique computation of this benchmark.
  std::vector<Real> w(m);
  auto matvec_sub = [&](std::span<const Real> d_sub, std::span<Real> q_sub) {
    const std::vector<Real> d_seg = assemble_segment(d_sub);
    block_spmv(matrix_, rows, cols, widest, d_seg, w);
    for (int k = 0; k < grid; ++k) {
      if (k == gj) continue;
      row_comm.send(k, kMergeTag,
                    std::span<const Real>(w).subspan(
                        static_cast<std::size_t>(k) * sub, sub));
    }
    std::copy(w.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(gj) * sub),
              w.begin() + static_cast<std::ptrdiff_t>((static_cast<std::size_t>(gj) + 1) * sub),
              q_sub.begin());
    std::vector<Real> chunk(sub);
    for (int k = 0; k < grid; ++k) {
      if (k == gj) continue;
      row_comm.recv(k, kMergeTag, std::span<Real>(chunk));
      fsefi::RegionScope unique(fsefi::Region::ParallelUnique);
      for (std::size_t e = 0; e < sub; ++e) q_sub[e] += chunk[e];
    }
  };

  // Vectors live as n/p sub-blocks: no replicated update work, so the
  // common computation matches serial execution (strong scaling).
  std::vector<Real> x(sub, Real(1.0));
  std::vector<Real> z(sub), r(sub), d(sub), q(sub);

  Real zeta = 0.0;
  Real rnorm = 0.0;

  // Same live state as run_1d, over the n/p sub-block partition.
  TrialControl* ctl = current_trial_control();
  auto views = [&] {
    return std::array<StateView, 3>{StateView::reals(x),
                                    StateView::real(zeta),
                                    StateView::real(rnorm)};
  };
  int outer = 0;
  if (ctl != nullptr) {
    const auto v = views();
    outer = ctl->begin(v);
  }

  for (; outer < config_.outer_iters; ++outer) {
    std::fill(z.begin(), z.end(), Real(0.0));
    r.assign(x.begin(), x.end());
    d.assign(r.begin(), r.end());
    Real rho = global_dot(comm, r, r);

    for (int it = 0; it < config_.cg_iters; ++it) {
      matvec_sub(d, q);
      const Real alpha = rho / global_dot(comm, d, q);
      axpy(alpha, d, z);
      axpy(-alpha, q, r);
      const Real rho_new = global_dot(comm, r, r);
      const Real beta = rho_new / rho;
      rho = rho_new;
      xpby(r, beta, d);
    }

    {
      matvec_sub(z, q);
      std::vector<Real> res(sub);
      for (std::size_t i = 0; i < sub; ++i) res[i] = x[i] - q[i];
      rnorm = global_norm2(comm, res);
      guard_finite(rnorm, "CG residual norm");
    }

    const Real xz = global_dot(comm, x, z);
    zeta = Real(config_.shift) + Real(1.0) / xz;
    guard_finite(zeta, "CG zeta");
    const Real znorm = global_norm2(comm, z);
    const Real inv = Real(1.0) / znorm;
    for (std::size_t i = 0; i < sub; ++i) x[i] = z[i] * inv;

    if (ctl != nullptr) {
      const auto v = views();
      if (!ctl->boundary(comm, outer, v)) return {};
    }
  }

  AppResult result;
  result.iterations = config_.outer_iters * config_.cg_iters;
  result.signature = {zeta.value(), rnorm.value()};
  return result;
}

}  // namespace resilience::apps
