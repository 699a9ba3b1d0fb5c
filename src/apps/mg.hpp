// MG — miniature of NAS Parallel Benchmarks MG.
//
// Runs V-cycles of a geometric multigrid solver for a 2D Poisson problem
// with a damped-Jacobi smoother, semicoarsening in the row direction.
// The output signature is the L2 norm of the final residual (NPB MG's
// verification quantity) plus the solution norm.
//
// Parallelization (strong scaling): rows are block-partitioned; smoothing
// and residual evaluation exchange one halo row with each neighbour and
// run as the blocked stencil kernels of apps/kernels.hpp.
// Levels whose row count is no longer divisible by the rank count are
// *replicated*: the residual is allgathered and every rank runs the
// remaining coarse-grid correction redundantly. That work does not exist
// in the serial run, so the op count grows with the rank count: 395,605
// FP ops serially, 6,005,440 at 64 ranks, where the 32-, 16- and 8-row
// levels are replicated (Table 1 of the paper reports no parallel-unique
// computation for MG). ROADMAP.md's MG coarse-grid item tracks
// distributing those levels instead.
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
