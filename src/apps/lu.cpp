#include "apps/lu.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "apps/kernels.hpp"
#include "apps/trial_control.hpp"
#include "util/rng.hpp"

namespace resilience::apps {

namespace {
constexpr int kHaloTag = 100;
constexpr int kForwardTag = 200;
constexpr int kBackwardTag = 300;
}  // namespace

LuApp::Config LuApp::config_for_class(const std::string& size_class) {
  Config cfg;
  if (size_class.empty() || size_class == "W") return cfg;
  throw std::invalid_argument("LU: unknown size class " + size_class);
}

LuApp::LuApp(Config config, std::string size_class)
    : config_(config), size_class_(std::move(size_class)) {
  if (config_.rows < 1 || config_.cols < 1) {
    throw std::invalid_argument("LU: bad grid");
  }
}

AppResult LuApp::run(simmpi::Comm& comm) const {
  const int p = comm.size();
  const int rank = comm.rank();
  const int cols = config_.cols;
  const auto width = static_cast<std::size_t>(cols);
  const auto block = simmpi::block_partition(config_.rows, p, rank);
  const int lo = static_cast<int>(block.lo);
  const int count = static_cast<int>(block.count());
  const int prev = (rank > 0) ? rank - 1 : -1;
  const int next = (rank + 1 < p) ? rank + 1 : -1;

  auto flat = [&](int i, int j) {
    return static_cast<std::size_t>(i) * width + static_cast<std::size_t>(j);
  };

  // Fixed right-hand side; solution starts at zero.
  std::vector<Real> u(static_cast<std::size_t>(count) * width, Real(0.0));
  std::vector<Real> f(u.size());
  for (int i = 0; i < count; ++i) {
    util::Xoshiro256 rng(
        util::derive_seed(config_.rhs_seed, static_cast<std::uint64_t>(lo + i)));
    for (int j = 0; j < cols; ++j) {
      f[flat(i, j)] = Real(rng.uniform_real(-1.0, 1.0));
    }
  }

  std::vector<Real> rhs(u.size()), z(u.size()), v(u.size());
  std::vector<Real> above(width), below(width), boundary(width);
  const Real omega(config_.omega);
  const Real inv_diag(1.0 / config_.diag);

  // r = f - A u with A = 4 I - (up + down + left + right).
  const RowBlock grid{.lo = lo, .count = count, .rows = config_.rows,
                      .cols = cols};
  auto compute_residual = [&](int tag) {
    std::fill(above.begin(), above.end(), Real(0.0));
    std::fill(below.begin(), below.end(), Real(0.0));
    if (p > 1 && count > 0) {
      exchange_halo_rows(
          comm, tag, std::span<const Real>(u).subspan(0, width),
          std::span<const Real>(u).subspan(
              static_cast<std::size_t>(count - 1) * width, width),
          std::span<Real>(above), std::span<Real>(below), prev, next);
    }
    stencil_residual(grid, u, f, above, below, rhs);
  };

  // Boundary hook (DESIGN.md §9): u is the only live state across
  // iterations — rhs, z and v are fully recomputed each sweep, and f is
  // fixed after setup (written with uninstrumented constructors).
  TrialControl* ctl = current_trial_control();
  auto views = [&] {
    return std::array<StateView, 1>{StateView::reals(u)};
  };
  int iter = 0;
  if (ctl != nullptr) {
    const auto vw = views();
    iter = ctl->begin(vw);
  }

  for (; iter < config_.iterations; ++iter) {
    compute_residual(kHaloTag + 2 * iter);

    // ---- forward (lower-triangular) sweep: wavefront top -> bottom ----
    std::fill(boundary.begin(), boundary.end(), Real(0.0));
    if (prev >= 0) {
      comm.recv(prev, kForwardTag + iter, std::span<Real>(boundary));
    }
    // Cell (i, j) reads z's row above and its left neighbour: cells
    // before a window, or computed inside it from scanned inputs.
    run_cells(
        u.size(), cols, 4,
        [&](auto arith, CellPos at) {
          using T = typename decltype(arith)::type;
          const auto col = static_cast<std::size_t>(at.j);
          const T up = (at.i > 0) ? T(z[at.c - width])
                                  : (lo > 0 ? T(boundary[col]) : T(0.0));
          const T left = (at.j > 0) ? T(z[at.c - 1]) : T(0.0);
          z[at.c] = static_cast<Real>(
              (T(rhs[at.c]) + T(omega) * (up + left)) * T(inv_diag));
          return CellOps{.add = 2, .mul = 2};
        },
        [&](std::size_t b, std::size_t e) {
          const std::size_t before = b > width ? b - width : 0;
          std::uint64_t diff =
              diverged_bits(omega) | diverged_bits(inv_diag) |
              diverged_bits(rhs, b, e) | diverged_bits(z, before, b);
          if (b < width) diff |= diverged_bits(boundary);
          return diff;
        });
    if (next >= 0 && count > 0) {
      comm.send(next, kForwardTag + iter,
                std::span<const Real>(z).subspan(
                    static_cast<std::size_t>(count - 1) * width, width));
    }

    // ---- backward (upper-triangular) sweep: wavefront bottom -> top ----
    std::fill(boundary.begin(), boundary.end(), Real(0.0));
    if (next >= 0) {
      comm.recv(next, kBackwardTag + iter, std::span<Real>(boundary));
    }
    // Cells are visited from the last: visit index c is flat index
    // n - 1 - c, and cell (i, j) reads v's row below and its right
    // neighbour.
    const std::size_t n = u.size();
    run_cells(
        n, cols, 4,
        [&](auto arith, CellPos at) {
          using T = typename decltype(arith)::type;
          const std::size_t k = n - 1 - at.c;
          const int i = count - 1 - at.i;
          const int j = cols - 1 - at.j;
          const T down = (i + 1 < count)
                             ? T(v[k + width])
                             : (lo + count < config_.rows
                                    ? T(boundary[static_cast<std::size_t>(j)])
                                    : T(0.0));
          const T right = (j + 1 < cols) ? T(v[k + 1]) : T(0.0);
          v[k] = static_cast<Real>(
              (T(z[k]) + T(omega) * (down + right)) * T(inv_diag));
          return CellOps{.add = 2, .mul = 2};
        },
        [&](std::size_t b, std::size_t e) {
          const std::size_t after = std::min(n, n - b + width);
          std::uint64_t diff =
              diverged_bits(omega) | diverged_bits(inv_diag) |
              diverged_bits(z, n - e, n - b) | diverged_bits(v, n - b, after);
          if (b < width) diff |= diverged_bits(boundary);
          return diff;
        });
    if (prev >= 0 && count > 0) {
      comm.send(prev, kBackwardTag + iter,
                std::span<const Real>(v).subspan(0, width));
    }

    // ---- apply the SSOR update ----
    run_cells(
        u.size(), static_cast<int>(u.size()), 1,
        [&](auto arith, CellPos at) {
          using T = typename decltype(arith)::type;
          T uk = T(u[at.c]);
          uk += T(v[at.c]);
          u[at.c] = static_cast<Real>(uk);
          return CellOps{.add = 1};
        },
        [&](std::size_t b, std::size_t e) {
          return diverged_bits(u, b, e) | diverged_bits(v, b, e);
        });

    if (ctl != nullptr) {
      const auto vw = views();
      if (!ctl->boundary(comm, iter, vw)) return {};
    }
  }

  compute_residual(kHaloTag + 2 * config_.iterations);
  const Real rnorm = global_norm2(comm, rhs);
  guard_finite(rnorm, "LU residual norm");
  const Real unorm = global_norm2(comm, u);

  AppResult result;
  result.iterations = config_.iterations;
  result.signature = {rnorm.value(), unorm.value()};
  return result;
}

}  // namespace resilience::apps
