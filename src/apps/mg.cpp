#include "apps/mg.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <stdexcept>

#include "apps/kernels.hpp"
#include "apps/trial_control.hpp"
#include "util/rng.hpp"

namespace resilience::apps {

namespace {

/// Working storage for one multigrid level. A level of `rows` rows lives
/// on min(p, rows) ranks at stride p / min(p, rows): ranks 0, stride,
/// 2*stride, ... each own `count` consecutive rows, stored row-major. Every
/// other rank holds no row of the level (count 0, empty vectors) and runs
/// no op and sends no message on it.
struct Level {
  int rows = 0;       ///< global interior rows of this level
  int cols = 0;
  int stride = 1;     ///< rank distance between consecutive owners
  int lo = 0;         ///< first owned row
  int count = 0;      ///< owned rows (0 on a rank that holds none)
  std::vector<Real> u;
  std::vector<Real> f;

  [[nodiscard]] bool owned() const noexcept { return count > 0; }
};

/// Rows [lo, lo + count) of a `rows`-row field held locally, plus the
/// row just above and the row just below them; a row past the grid's edge
/// reads as zero. The restriction and prolongation cells read through it.
struct RowWindow {
  std::span<const Real> local;
  std::span<const Real> above;
  std::span<const Real> below;
  int lo = 0;
  int count = 0;
  int rows = 0;
  int cols = 0;

  template <class T>
  T at(int g, int j) const {
    const auto col = static_cast<std::size_t>(j);
    if (g < 0 || g >= rows) return T(0.0);
    if (g < lo) return T(above[col]);
    if (g >= lo + count) return T(below[col]);
    return T(local[static_cast<std::size_t>(g - lo) *
                       static_cast<std::size_t>(cols) +
                   col]);
  }

  /// Nonzero when a value of global rows [g0, g1] diverges.
  [[nodiscard]] std::uint64_t diverged(int g0, int g1) const {
    const auto width = static_cast<std::size_t>(cols);
    const auto row = [&](int g) {
      return static_cast<std::size_t>(std::clamp(g - lo, 0, count)) * width;
    };
    std::uint64_t diff = diverged_bits(local, row(g0), row(g1 + 1));
    if (g0 < lo) diff |= diverged_bits(above);
    if (g1 >= lo + count) diff |= diverged_bits(below);
    return diff;
  }
};

class MgSolver {
 public:
  MgSolver(const MgApp::Config& cfg, simmpi::Comm& comm)
      : cfg_(cfg), comm_(comm), p_(comm.size()), rank_(comm.rank()) {
    for (int rows = cfg_.rows; rows >= cfg_.coarsest_rows; rows /= 2) {
      Level lvl;
      lvl.rows = rows;
      lvl.cols = cfg_.cols;
      const int active = std::min(p_, rows);
      lvl.stride = p_ / active;
      if (rank_ % lvl.stride == 0) {
        lvl.count = rows / active;
        lvl.lo = rank_ / lvl.stride * lvl.count;
      }
      const auto cells = static_cast<std::size_t>(lvl.count) *
                         static_cast<std::size_t>(lvl.cols);
      lvl.u.assign(cells, Real(0.0));
      lvl.f.assign(cells, Real(0.0));
      levels_.push_back(std::move(lvl));
    }
  }

  /// Runs the configured V-cycles; returns (residual norm, solution norm),
  /// or nullopt when the trial controller ended the run early.
  std::optional<std::pair<Real, Real>> solve() {
    init_rhs();
    // Boundary hook (DESIGN.md §9): end of a V-cycle. The finest u is the
    // only live state — fine.f is fixed after init_rhs (and written with
    // uninstrumented constructors, so it cannot be corrupted), and every
    // coarse level's u and f are fully overwritten inside each V-cycle.
    // The view is rebuilt per call because smooth() swaps u's buffer.
    TrialControl* ctl = current_trial_control();
    auto views = [&] {
      return std::array<StateView, 1>{StateView::reals(levels_.front().u)};
    };
    int cycle = 0;
    if (ctl != nullptr) {
      const auto v = views();
      cycle = ctl->begin(v);
    }
    for (; cycle < cfg_.vcycles; ++cycle) {
      vcycle(0);
      const Real rnorm = finest_residual_norm();
      guard_finite(rnorm, "MG residual norm");
      if (ctl != nullptr) {
        const auto v = views();
        if (!ctl->boundary(comm_, cycle, v)) return std::nullopt;
      }
    }
    Level& fine = levels_.front();
    const Real rnorm = finest_residual_norm();
    const Real unorm =
        p_ > 1 ? global_norm2(comm_, fine.u) : sqrt(local_dot(fine.u, fine.u));
    return {{rnorm, unorm}};
  }

 private:
  static std::size_t at(const Level& lvl, int i, int j) {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(lvl.cols) +
           static_cast<std::size_t>(j);
  }

  void init_rhs() {
    Level& fine = levels_.front();
    for (int i = 0; i < fine.count; ++i) {
      const int gi = fine.lo + i;
      util::Xoshiro256 rng(
          util::derive_seed(cfg_.rhs_seed, static_cast<std::uint64_t>(gi)));
      for (int j = 0; j < fine.cols; ++j) {
        fine.f[at(fine, i, j)] = Real(rng.uniform_real(-1.0, 1.0));
      }
    }
  }

  /// The owners of `lvl`'s neighbouring row blocks, -1 past the grid.
  [[nodiscard]] int prev_owner(const Level& lvl) const noexcept {
    return rank_ - lvl.stride >= 0 ? rank_ - lvl.stride : -1;
  }
  [[nodiscard]] int next_owner(const Level& lvl) const noexcept {
    return rank_ + lvl.stride < p_ ? rank_ + lvl.stride : -1;
  }

  /// Fetch halo rows of `field` (a block of `lvl`) above and below this
  /// rank's block from the neighbouring owners (zero at the global
  /// boundary); tag_base separates exchanges.
  void fetch_halo(const Level& lvl, const std::vector<Real>& field,
                      std::vector<Real>& above, std::vector<Real>& below,
                      int tag_base) {
    const auto width = static_cast<std::size_t>(lvl.cols);
    above.assign(width, Real(0.0));
    below.assign(width, Real(0.0));
    exchange_halo_rows(
        comm_, tag_base,
        std::span<const Real>(field).subspan(0, width),  // my top -> prev
        std::span<const Real>(field).subspan(
            static_cast<std::size_t>(lvl.count - 1) * width, width),
        std::span<Real>(above), std::span<Real>(below), prev_owner(lvl),
        next_owner(lvl));
  }

  static RowBlock block(const Level& lvl) {
    return {lvl.lo, lvl.count, lvl.rows, lvl.cols};
  }

  /// `sweeps` damped-Jacobi sweeps on `lvl` (5-point Laplacian, h = 1).
  void smooth(Level& lvl, int sweeps, int tag_base) {
    if (!lvl.owned()) return;
    std::vector<Real> above, below, next(lvl.u.size());
    for (int s = 0; s < sweeps; ++s) {
      fetch_halo(lvl, lvl.u, above, below, tag_base + 2 * s);
      jacobi_sweep(block(lvl), lvl.u, lvl.f, above, below, cfg_.omega, next);
      lvl.u.swap(next);
    }
  }

  /// r = f - A u on `lvl` into `r` (sized like lvl.u).
  void residual(Level& lvl, std::vector<Real>& r, int tag_base) {
    if (!lvl.owned()) return;
    std::vector<Real> above, below;
    fetch_halo(lvl, lvl.u, above, below, tag_base);
    r.resize(lvl.u.size());
    stencil_residual(block(lvl), lvl.u, lvl.f, above, below, r);
  }

  /// Row-direction full-weighting restriction of `fine_r` (layout of
  /// `fine`) into coarse.f, one cell per coarse element:
  ///   f = 0.25 * r[2k-1] + 0.5 * r[2k] + 0.25 * r[2k+1]
  void restrict_to(const Level& fine, const std::vector<Real>& fine_r,
                   Level& coarse, int tag_base) {
    if (!fine.owned()) return;
    const auto width = static_cast<std::size_t>(fine.cols);
    std::vector<Real> above(width, Real(0.0)), below(width, Real(0.0));
    if (coarse.stride == fine.stride) {
      // Aligned blocks (fine.lo == 2 * coarse.lo): only the fine row above
      // my first is remote.
      fetch_halo(fine, fine_r, above, below, tag_base);
    } else if (!coarse.owned()) {
      // The stride doubles and each fine owner holds one row. An odd fine
      // row feeds the coarse rows on both neighbouring owners.
      const auto row = std::span<const Real>(fine_r);
      const int next = next_owner(fine);
      comm_.send(prev_owner(fine), tag_base, row);
      if (next >= 0) comm_.send(next, tag_base + 1, row);
      return;
    } else {
      // Even fine row 2k holds coarse row k and receives rows 2k-1, 2k+1.
      const int prev = prev_owner(fine);
      if (prev >= 0) comm_.recv(prev, tag_base + 1, std::span<Real>(above));
      comm_.recv(next_owner(fine), tag_base, std::span<Real>(below));
    }
    const RowWindow fr{fine_r, above, below, fine.lo, fine.count, fine.rows,
                       fine.cols};
    run_cells(
        coarse.f.size(), coarse.cols, 5,
        [&](auto arith, CellPos c) {
          using T = typename decltype(arith)::type;
          const int gf = 2 * (coarse.lo + c.i);
          coarse.f[c.c] = static_cast<Real>(
              T(0.25) * fr.at<T>(gf - 1, c.j) + T(0.5) * fr.at<T>(gf, c.j) +
              T(0.25) * fr.at<T>(gf + 1, c.j));
          return CellOps{.add = 2, .mul = 3};
        },
        [&](std::size_t b, std::size_t e) {
          const int gf0 = 2 * (coarse.lo + static_cast<int>(b / width));
          const int gf1 = 2 * (coarse.lo + static_cast<int>((e - 1) / width));
          return fr.diverged(gf0 - 1, gf1 + 1);
        });
  }

  /// Linear row-direction prolongation of coarse.u added into fine.u, one
  /// cell per fine element: u += c[k] on fine row 2k, and
  /// u += 0.5 * (c[k] + c[k+1]) on fine row 2k+1.
  void prolong_add(const Level& coarse, Level& fine, int tag_base) {
    if (!fine.owned()) return;
    const auto width = static_cast<std::size_t>(coarse.cols);
    std::vector<Real> above(width, Real(0.0)), below(width, Real(0.0));
    if (coarse.stride == fine.stride) {
      // Aligned blocks: only the coarse row below my last is remote.
      fetch_halo(coarse, coarse.u, above, below, tag_base);
    } else if (coarse.owned()) {
      // The stride doubles: even fine row 2k holds coarse row k and feeds
      // the odd fine rows on both neighbouring owners.
      const auto row = std::span<const Real>(coarse.u);
      const int prev = prev_owner(fine);
      if (prev >= 0) comm_.send(prev, tag_base, row);
      comm_.send(next_owner(fine), tag_base + 1, row);
    } else {
      // Odd fine row 2k+1 receives coarse rows k and k+1.
      const int next = next_owner(fine);
      comm_.recv(prev_owner(fine), tag_base + 1, std::span<Real>(above));
      if (next >= 0) comm_.recv(next, tag_base, std::span<Real>(below));
    }
    // My coarse rows start at the first one at or below my first fine row.
    const RowWindow cu{coarse.u,          above,        below,
                       (fine.lo + 1) / 2, coarse.count, coarse.rows,
                       coarse.cols};
    run_cells(
        fine.u.size(), fine.cols, 3,
        [&](auto arith, CellPos c) {
          using T = typename decltype(arith)::type;
          const int gf = fine.lo + c.i;
          const bool even = gf % 2 == 0;
          const T corr = even ? cu.at<T>(gf / 2, c.j)
                              : T(0.5) * (cu.at<T>(gf / 2, c.j) +
                                          cu.at<T>(gf / 2 + 1, c.j));
          fine.u[c.c] = static_cast<Real>(T(fine.u[c.c]) + corr);
          return even ? CellOps{.add = 1} : CellOps{.add = 2, .mul = 1};
        },
        [&](std::size_t b, std::size_t e) {
          const int gc0 = (fine.lo + static_cast<int>(b / width)) / 2;
          const int gc1 = (fine.lo + static_cast<int>((e - 1) / width)) / 2;
          return diverged_bits(fine.u, b, e) | cu.diverged(gc0, gc1 + 1);
        });
  }

  void vcycle(std::size_t l) {
    Level& lvl = levels_[l];
    if (l + 1 == levels_.size()) {
      smooth(lvl, cfg_.coarse_smooth, tag());
      return;
    }
    smooth(lvl, cfg_.pre_smooth, tag());
    std::vector<Real> r;
    residual(lvl, r, tag());
    Level& coarse = levels_[l + 1];
    std::fill(coarse.u.begin(), coarse.u.end(), Real(0.0));
    restrict_to(lvl, r, coarse, tag());
    vcycle(l + 1);
    prolong_add(coarse, lvl, tag());
    smooth(lvl, cfg_.post_smooth, tag());
  }

  Real finest_residual_norm() {
    Level& fine = levels_.front();
    std::vector<Real> r;
    residual(fine, r, tag());
    if (p_ > 1) return global_norm2(comm_, r);
    return sqrt(local_dot(r, r));
  }

  /// Fresh tag block for each communication phase; the SPMD structure
  /// keeps counters identical on every rank.
  int tag() noexcept {
    tag_counter_ += 16;
    return tag_counter_;
  }

  const MgApp::Config& cfg_;
  simmpi::Comm& comm_;
  int p_;
  int rank_;
  int tag_counter_ = 100;
  std::vector<Level> levels_;
};

}  // namespace

MgApp::Config MgApp::config_for_class(const std::string& size_class) {
  Config cfg;
  if (size_class.empty() || size_class == "S") return cfg;
  throw std::invalid_argument("MG: unknown size class " + size_class);
}

MgApp::MgApp(Config config, std::string size_class)
    : config_(config), size_class_(std::move(size_class)) {
  // Power-of-two rows make every level's owners an integral stride apart.
  if (config_.rows < config_.coarsest_rows || config_.coarsest_rows < 2 ||
      !std::has_single_bit(static_cast<unsigned>(config_.rows))) {
    throw std::invalid_argument("MG: bad level configuration");
  }
}

AppResult MgApp::run(simmpi::Comm& comm) const {
  MgSolver solver(config_, comm);
  const auto norms = solver.solve();
  if (!norms.has_value()) return {};  // early exit: harness synthesizes
  AppResult result;
  result.iterations = config_.vcycles;
  result.signature = {norms->first.value(), norms->second.value()};
  return result;
}

}  // namespace resilience::apps
