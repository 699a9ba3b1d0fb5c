// MG — miniature of NAS Parallel Benchmarks MG.
//
// Runs V-cycles of a geometric multigrid solver for a 2D Poisson problem
// with a damped-Jacobi smoother, semicoarsening in the row direction.
// The output signature is the L2 norm of the final residual (NPB MG's
// verification quantity) plus the solution norm.
//
// Parallelization (strong scaling): every level is block-partitioned by
// rows over the largest rank subset that divides it. A level of R rows
// lives on min(p, R) ranks at stride p / min(p, R) — at 64 ranks the 32-row
// level on the even ranks, the 16-row level on every fourth and the 8-row
// level on every eighth — so, as in NPB MG, some ranks hold no point of a
// coarse level and run no op on it. Smoothing and residual evaluation
// exchange one halo row with the neighbouring owners and run as the
// blocked stencil kernels of apps/kernels.hpp. Restriction and
// prolongation run as cells too; where the stride doubles each fine owner
// holds one row, the even ones hold the coarse rows and the odd ones send
// their row (restriction) or receive both coarse neighbours
// (prolongation). Every rank runs its share of the serial work: 395,605
// FP ops serially and 395,605 + 5 (p - 1) at p ranks, the extra being
// every rank's own square root of the five global norms.
#pragma once

#include <cstdint>
#include <string>

#include "apps/app.hpp"

namespace resilience::apps {

class MgApp final : public App {
 public:
  struct Config {
    int rows = 128;          ///< finest-level interior rows (power of two)
    int cols = 10;           ///< interior columns (fixed across levels)
    int coarsest_rows = 8;   ///< stop coarsening here
    int vcycles = 3;
    int pre_smooth = 2;
    int post_smooth = 2;
    int coarse_smooth = 8;   ///< Jacobi sweeps on the coarsest level
    double omega = 0.8;      ///< Jacobi damping
    std::uint64_t rhs_seed = 0xf00dfaceULL;
  };

  static Config config_for_class(const std::string& size_class);

  MgApp(Config config, std::string size_class);

  [[nodiscard]] std::string name() const override { return "MG"; }
  [[nodiscard]] std::string size_class() const override { return size_class_; }
  [[nodiscard]] bool supports(int nranks) const override {
    return nranks >= 1 && nranks <= config_.rows &&
           config_.rows % nranks == 0;
  }
  [[nodiscard]] double checker_tolerance() const override { return 1e-9; }

  AppResult run(simmpi::Comm& comm) const override;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Config config_;
  std::string size_class_;
};

}  // namespace resilience::apps
