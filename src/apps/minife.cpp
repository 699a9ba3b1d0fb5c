#include "apps/minife.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "apps/kernels.hpp"
#include "apps/trial_control.hpp"
#include "util/rng.hpp"

namespace resilience::apps {

namespace {

/// One remote stiffness contribution: destined for the rank owning `row`.
struct Contribution {
  std::int64_t row = 0;
  std::int64_t col = 0;
  Real val{0.0};
};
static_assert(std::is_trivially_copyable_v<Contribution>);

constexpr int kContribTag = 700;

/// Gradients of the 8 trilinear shape functions of the unit hexahedron at
/// point (x, y, z). Corner a has local coordinates (a&1, (a>>1)&1, a>>2).
void shape_gradients(double x, double y, double z, double grad[8][3]) {
  for (int a = 0; a < 8; ++a) {
    const double sx = (a & 1) ? 1.0 : -1.0;
    const double sy = (a & 2) ? 1.0 : -1.0;
    const double sz = (a & 4) ? 1.0 : -1.0;
    const double nx = (a & 1) ? x : (1.0 - x);
    const double ny = (a & 2) ? y : (1.0 - y);
    const double nz = (a & 4) ? z : (1.0 - z);
    grad[a][0] = sx * ny * nz;
    grad[a][1] = nx * sy * nz;
    grad[a][2] = nx * ny * sz;
  }
}

}  // namespace

MiniFeApp::Config MiniFeApp::config_for_class(const std::string& size_class) {
  Config cfg;
  if (size_class.empty() || size_class == "S" ||
      size_class == "nx=6 ny=6 nz=6") {
    return cfg;
  }
  if (size_class == "B" || size_class == "nx=10 ny=10 nz=10") {
    cfg.nx = 10;
    return cfg;
  }
  throw std::invalid_argument("MiniFE: unknown size class " + size_class);
}

MiniFeApp::MiniFeApp(Config config, std::string size_class)
    : config_(config), size_class_(std::move(size_class)) {
  if (config_.nx < 2) throw std::invalid_argument("MiniFE: nx too small");
  // Reference stiffness via 2x2x2 Gauss quadrature on the unit cube
  // (plain doubles: one-time setup, identical for every element).
  const double g0 = 0.5 - 0.5 / std::numbers::sqrt3;
  const double g1 = 0.5 + 0.5 / std::numbers::sqrt3;
  const double pts[2] = {g0, g1};
  double grad[8][3];
  for (double gx : pts) {
    for (double gy : pts) {
      for (double gz : pts) {
        shape_gradients(gx, gy, gz, grad);
        for (int a = 0; a < 8; ++a) {
          for (int b = 0; b < 8; ++b) {
            ref_stiffness_[static_cast<std::size_t>(a * 8 + b)] +=
                0.125 * (grad[a][0] * grad[b][0] + grad[a][1] * grad[b][1] +
                         grad[a][2] * grad[b][2]);
          }
        }
      }
    }
  }
}

MiniFeApp::Pattern MiniFeApp::stencil_pattern(int nx, simmpi::BlockRange rows) {
  const std::int64_t n = nx + 1;
  Pattern pat{{0}, {}};
  pat.col_idx.reserve(static_cast<std::size_t>(rows.count()) * 27);
  for (std::int64_t row = rows.lo; row < rows.hi; ++row) {
    const std::int64_t x = row % n, y = row / n % n, z = row / (n * n);
    for (auto k = std::max<std::int64_t>(z - 1, 0); k < std::min(z + 2, n); ++k) {
      for (auto j = std::max<std::int64_t>(y - 1, 0); j < std::min(y + 2, n); ++j) {
        for (auto i = std::max<std::int64_t>(x - 1, 0); i < std::min(x + 2, n); ++i) {
          pat.col_idx.push_back(i + n * (j + n * k));
        }
      }
    }
    pat.row_ptr.push_back(pat.col_idx.size());
  }
  return pat;
}

AppResult MiniFeApp::run(simmpi::Comm& comm) const {
  const int p = comm.size();
  const int rank = comm.rank();
  const int nx = config_.nx;
  const std::int64_t nodes_per_side = nx + 1;
  const std::int64_t n_nodes = nodes_per_side * nodes_per_side * nodes_per_side;
  const std::int64_t n_elems = static_cast<std::int64_t>(nx) * nx * nx;

  const auto row_block = simmpi::block_partition(n_nodes, p, rank);
  const auto elem_block = simmpi::block_partition(n_elems, p, rank);
  const auto local_rows = static_cast<std::size_t>(row_block.count());

  // ---- CG vectors of A x = b and the matrix pattern ----------------------
  // b varies per node: a constant right-hand side would be solved exactly
  // in one step because the stiffness has zero row sums. Everything here
  // is uninstrumented construction: no op runs before begin().
  std::vector<Real> x(local_rows, Real(0.0)), b(local_rows);
  for (std::int64_t i = row_block.lo; i < row_block.hi; ++i) {
    util::Xoshiro256 rng(util::derive_seed(config_.material_seed ^ 0xb5u,
                                           static_cast<std::uint64_t>(i)));
    b[static_cast<std::size_t>(i - row_block.lo)] =
        Real(rng.uniform_real(0.1, 1.0));
  }
  std::vector<Real> r(b), d(b), q(local_rows);
  const auto [row_ptr, col_idx] = stencil_pattern(nx, row_block);
  std::vector<Real> mat_vals(col_idx.size(), Real(0.0));
  Real rho_r(0.0), rnorm(0.0);

  // Boundary hook (DESIGN.md §9): the CG vectors and scalars carried across
  // iterations, plus the assembled matrix values — assembly computes them
  // with instrumented ops (and merges remote contributions), so they are
  // corruptible state even though the solve only reads them. q is fully
  // overwritten by the matvec each iteration and b is written with
  // uninstrumented constructors; neither is live.
  TrialControl* ctl = current_trial_control();
  auto views = [&] {
    return std::array<StateView, 6>{
        StateView::reals(x),      StateView::reals(r),
        StateView::reals(d),      StateView::real(rho_r),
        StateView::real(rnorm),   StateView::reals(mat_vals)};
  };
  int it = ctl != nullptr ? ctl->begin(views()) : 0;

  // ---- assembly (skipped when begin() restored a checkpoint) ------------
  // Contributions accumulate straight into their CSR slots; those to remote
  // rows are queued per owning rank.
  if (it == 0) {
    // The (row, col) slot: binary search over the row's <= 27 columns.
    auto slot = [&](std::int64_t row, std::int64_t col) -> Real& {
      const auto i = static_cast<std::size_t>(row - row_block.lo);
      const std::int64_t* cols = col_idx.data();
      return mat_vals[static_cast<std::size_t>(
          std::lower_bound(cols + row_ptr[i], cols + row_ptr[i + 1], col) - cols)];
    };
    std::vector<std::vector<Contribution>> outgoing(static_cast<std::size_t>(p));
    for (std::int64_t e = elem_block.lo; e < elem_block.hi; ++e) {
      const int ex = static_cast<int>(e % nx);
      const int ey = static_cast<int>((e / nx) % nx);
      const int ez = static_cast<int>(e / (static_cast<std::int64_t>(nx) * nx));
      // Per-element material coefficient, deterministic in the element id.
      util::Xoshiro256 rng(
          util::derive_seed(config_.material_seed, static_cast<std::uint64_t>(e)));
      const Real rho(rng.uniform_real(0.5, 1.5));

      std::int64_t elem_nodes[8];
      for (int a = 0; a < 8; ++a) {
        elem_nodes[a] = ex + (a & 1) + nodes_per_side * (
            ey + ((a >> 1) & 1) + nodes_per_side * (ez + ((a >> 2) & 1)));
      }
      for (int a = 0; a < 8; ++a) {
        const std::int64_t row = elem_nodes[a];
        const int owner = simmpi::block_owner(n_nodes, p, row);
        for (int c = 0; c < 8; ++c) {
          const Real val =
              rho * Real(ref_stiffness_[static_cast<std::size_t>(a * 8 + c)]);
          if (owner == rank) {
            slot(row, elem_nodes[c]) += val;
          } else {
            outgoing[static_cast<std::size_t>(owner)].push_back(
                {row, elem_nodes[c], val});
          }
        }
      }
    }

    if (p > 1) {
      // Sparse all-to-all: exchange counts, then targeted payload sends.
      std::vector<std::int64_t> send_counts(static_cast<std::size_t>(p), 0);
      for (std::size_t peer = 0; peer < outgoing.size(); ++peer) {
        send_counts[peer] = static_cast<std::int64_t>(outgoing[peer].size());
      }
      std::vector<std::int64_t> recv_counts(static_cast<std::size_t>(p), 0);
      comm.alltoall(std::span<const std::int64_t>(send_counts),
                    std::span<std::int64_t>(recv_counts));
      for (int peer = 0; peer < p; ++peer) {
        const auto& out = outgoing[static_cast<std::size_t>(peer)];
        if (peer != rank && !out.empty()) {
          comm.send(peer, kContribTag, std::span<const Contribution>(out));
        }
      }
      // Merge received contributions in rank order: the parallel-unique
      // computation of this benchmark (serial execution assembles every
      // row locally and never executes this merge).
      fsefi::RegionScope unique(fsefi::Region::ParallelUnique);
      for (int peer = 0; peer < p; ++peer) {
        const auto count = recv_counts[static_cast<std::size_t>(peer)];
        if (peer == rank || count == 0) continue;
        std::vector<Contribution> incoming(static_cast<std::size_t>(count));
        comm.recv(peer, kContribTag, std::span<Contribution>(incoming));
        for (const auto& c : incoming) slot(c.row, c.col) += c.val;
      }
    }

    // Regularization A = K + shift I keeps the pure-Neumann operator SPD.
    for (std::int64_t i = row_block.lo; i < row_block.hi; ++i) {
      slot(i, i) += Real(config_.mass_shift);
    }
    rho_r = global_dot(comm, r, r);
    rnorm = sqrt(rho_r);
  }

  std::vector<Real> gathered;  // allgather_blocks' reused gather buffer
  const std::size_t widest = widest_row(row_ptr);
  auto matvec = [&](std::span<const Real> in_local, std::span<Real> out) {
    const auto full = allgather_blocks(comm, in_local, n_nodes, gathered);
    csr_matvec(
        [&](std::size_t i) {
          const std::size_t first = row_ptr[i];
          const std::size_t count = row_ptr[i + 1] - first;
          return std::pair{
              std::span<const Real>(mat_vals).subspan(first, count),
              std::span<const std::int64_t>(col_idx).subspan(first, count)};
        },
        widest, full, 0, out);
  };

  for (; it < config_.cg_iters; ++it) {
    matvec(d, q);
    const Real alpha = rho_r / global_dot(comm, d, q);
    axpy(alpha, d, x);
    axpy(-alpha, q, r);
    const Real rho_new = global_dot(comm, r, r);
    rnorm = sqrt(rho_new);
    guard_finite(rnorm, "MiniFE residual norm");
    const Real beta = rho_new / rho_r;
    rho_r = rho_new;
    xpby(r, beta, d);

    if (ctl != nullptr) {
      const auto vw = views();
      if (!ctl->boundary(comm, it, vw)) return {};
    }
  }

  const Real xnorm = global_norm2(comm, x);
  const Real bx = global_dot(comm, b, x);

  AppResult result;
  result.iterations = config_.cg_iters;
  result.signature = {rnorm.value(), xnorm.value(), bx.value()};
  return result;
}

}  // namespace resilience::apps
