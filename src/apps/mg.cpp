#include "apps/mg.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "apps/kernels.hpp"
#include "apps/trial_control.hpp"
#include "util/rng.hpp"

namespace resilience::apps {

namespace {

/// Working storage for one multigrid level. When the level is distributed
/// the vectors hold only this rank's rows; when agglomerated they hold the
/// full grid (identical on every rank).
struct Level {
  int rows = 0;       ///< global interior rows of this level
  int cols = 0;
  bool distributed = false;
  int lo = 0;         ///< first owned row (0 when agglomerated)
  int count = 0;      ///< owned rows (== rows when agglomerated)
  std::vector<Real> u;
  std::vector<Real> f;
};

class MgSolver {
 public:
  MgSolver(const MgApp::Config& cfg, simmpi::Comm& comm)
      : cfg_(cfg), comm_(comm), p_(comm.size()), rank_(comm.rank()) {
    for (int rows = cfg_.rows; rows >= cfg_.coarsest_rows; rows /= 2) {
      Level lvl;
      lvl.rows = rows;
      lvl.cols = cfg_.cols;
      lvl.distributed = (p_ > 1) && (rows % p_ == 0);
      if (lvl.distributed) {
        lvl.count = rows / p_;
        lvl.lo = rank_ * lvl.count;
      } else {
        lvl.count = rows;
        lvl.lo = 0;
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
        fine.distributed
            ? global_norm2(comm_, fine.u)
            : sqrt(local_dot(fine.u, fine.u));
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

  /// Fetch halo rows above and below this rank's block (zero at the global
  /// boundary). `which` selects u or f; tag_base separates exchanges.
  void fetch_halo(const Level& lvl, const std::vector<Real>& field,
                  std::vector<Real>& above, std::vector<Real>& below,
                  int tag_base) {
    const auto width = static_cast<std::size_t>(lvl.cols);
    above.assign(width, Real(0.0));
    below.assign(width, Real(0.0));
    if (!lvl.distributed) return;
    const int prev = (rank_ > 0) ? rank_ - 1 : -1;
    const int next = (rank_ + 1 < p_) ? rank_ + 1 : -1;
    exchange_halo_rows(
        comm_, tag_base,
        std::span<const Real>(field).subspan(0, width),  // my top -> prev
        std::span<const Real>(field).subspan(
            static_cast<std::size_t>(lvl.count - 1) * width, width),
        std::span<Real>(above), std::span<Real>(below), prev, next);
  }

  static RowBlock block(const Level& lvl) {
    return {lvl.lo, lvl.count, lvl.rows, lvl.cols};
  }

  /// `sweeps` damped-Jacobi sweeps on `lvl` (5-point Laplacian, h = 1).
  void smooth(Level& lvl, int sweeps, int tag_base) {
    std::vector<Real> above, below, next(lvl.u.size());
    for (int s = 0; s < sweeps; ++s) {
      fetch_halo(lvl, lvl.u, above, below, tag_base + 2 * s);
      jacobi_sweep(block(lvl), lvl.u, lvl.f, above, below, cfg_.omega, next);
      lvl.u.swap(next);
    }
  }

  /// r = f - A u on `lvl` into `r` (sized like lvl.u).
  void residual(Level& lvl, std::vector<Real>& r, int tag_base) {
    std::vector<Real> above, below;
    fetch_halo(lvl, lvl.u, above, below, tag_base);
    r.resize(lvl.u.size());
    stencil_residual(block(lvl), lvl.u, lvl.f, above, below, r);
  }

  /// Row-direction full-weighting restriction of `fine_r` (layout of
  /// `fine`) into coarse.f. Handles all three distribution combinations.
  void restrict_to(const Level& fine, const std::vector<Real>& fine_r,
                   Level& coarse, int tag_base) {
    const auto width = static_cast<std::size_t>(fine.cols);
    const Real half(0.5), quarter(0.25);
    if (fine.distributed && !coarse.distributed) {
      // Agglomeration boundary: collect the full fine residual everywhere.
      std::vector<Real> full(static_cast<std::size_t>(fine.rows) * width);
      comm_.allgather(std::span<const Real>(fine_r), std::span<Real>(full));
      auto fr = [&](int gi, int j) -> Real {
        if (gi < 0 || gi >= fine.rows) return Real(0.0);
        return full[static_cast<std::size_t>(gi) * width +
                    static_cast<std::size_t>(j)];
      };
      for (int i = 0; i < coarse.rows; ++i) {
        for (int j = 0; j < coarse.cols; ++j) {
          coarse.f[at(coarse, i, j)] = quarter * fr(2 * i - 1, j) +
                                       half * fr(2 * i, j) +
                                       quarter * fr(2 * i + 1, j);
        }
      }
      return;
    }
    // Same distribution on both levels (both distributed with aligned
    // blocks, or both agglomerated): only the fine row below my first
    // owned row is remote.
    std::vector<Real> above(width, Real(0.0)), below(width, Real(0.0));
    if (fine.distributed) {
      const int prev = (rank_ > 0) ? rank_ - 1 : -1;
      const int next = (rank_ + 1 < p_) ? rank_ + 1 : -1;
      exchange_halo_rows(
          comm_, tag_base, std::span<const Real>(fine_r).subspan(0, width),
          std::span<const Real>(fine_r).subspan(
              static_cast<std::size_t>(fine.count - 1) * width, width),
          std::span<Real>(above), std::span<Real>(below), prev, next);
    }
    auto fr = [&](int li, int j) -> Real {  // li: fine row local to my block
      if (li < 0) {
        return (fine.lo + li >= 0) ? above[static_cast<std::size_t>(j)]
                                   : Real(0.0);
      }
      return fine_r[static_cast<std::size_t>(li) * width +
                    static_cast<std::size_t>(j)];
    };
    for (int ci = 0; ci < coarse.count; ++ci) {
      const int fine_local = 2 * ci;  // aligned blocks: fine.lo == 2*coarse.lo
      for (int j = 0; j < coarse.cols; ++j) {
        coarse.f[at(coarse, ci, j)] = quarter * fr(fine_local - 1, j) +
                                      half * fr(fine_local, j) +
                                      quarter * fr(fine_local + 1, j);
      }
    }
  }

  /// Linear row-direction prolongation of coarse.u added into fine.u.
  void prolong_add(const Level& coarse, Level& fine, int tag_base) {
    const auto width = static_cast<std::size_t>(coarse.cols);
    const Real half(0.5);
    if (fine.distributed && !coarse.distributed) {
      // Every rank holds the full coarse grid: interpolate my fine rows.
      auto cu = [&](int gi, int j) -> Real {
        if (gi < 0 || gi >= coarse.rows) return Real(0.0);
        return coarse.u[static_cast<std::size_t>(gi) * width +
                        static_cast<std::size_t>(j)];
      };
      for (int i = 0; i < fine.count; ++i) {
        const int gf = fine.lo + i;
        for (int j = 0; j < fine.cols; ++j) {
          const Real corr = (gf % 2 == 0)
                                ? cu(gf / 2, j)
                                : half * (cu(gf / 2, j) + cu(gf / 2 + 1, j));
          fine.u[at(fine, i, j)] += corr;
        }
      }
      return;
    }
    std::vector<Real> above(width, Real(0.0)), below(width, Real(0.0));
    if (coarse.distributed) {
      const int prev = (rank_ > 0) ? rank_ - 1 : -1;
      const int next = (rank_ + 1 < p_) ? rank_ + 1 : -1;
      exchange_halo_rows(
          comm_, tag_base, std::span<const Real>(coarse.u).subspan(0, width),
          std::span<const Real>(coarse.u)
              .subspan(static_cast<std::size_t>(coarse.count - 1) * width,
                       width),
          std::span<Real>(above), std::span<Real>(below), prev, next);
    }
    auto cu = [&](int li, int j) -> Real {  // li local to my coarse block
      if (li >= coarse.count) {
        return (coarse.lo + li < coarse.rows)
                   ? below[static_cast<std::size_t>(j)]
                   : Real(0.0);
      }
      return coarse.u[static_cast<std::size_t>(li) * width +
                      static_cast<std::size_t>(j)];
    };
    for (int i = 0; i < fine.count; ++i) {
      const int ci = i / 2;  // aligned: fine.count == 2 * coarse.count
      for (int j = 0; j < fine.cols; ++j) {
        const Real corr = (i % 2 == 0) ? cu(ci, j)
                                       : half * (cu(ci, j) + cu(ci + 1, j));
        fine.u[at(fine, i, j)] += corr;
      }
    }
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
    if (fine.distributed) return global_norm2(comm_, r);
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
  if (config_.rows < config_.coarsest_rows || config_.coarsest_rows < 2) {
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
