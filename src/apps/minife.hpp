// MiniFE — miniature of the Mantevo MiniFE proxy application.
//
// Assembles a finite-element-style linear system on a 3D brick mesh of
// hexahedral elements (8-node trilinear reference stiffness, per-element
// material coefficient) and solves it with unpreconditioned conjugate
// gradients.
//
// Assembly accumulates straight into a fixed compressed-row pattern: the
// 27-point node stencil clipped at the mesh edges (two nodes share an
// element exactly when they differ by at most 1 on each axis), columns
// ascending. It runs after TrialControl::begin(), so a trial restored from
// a checkpoint takes the matrix from it and skips assembly altogether.
//
// Parallelization (strong scaling): elements and matrix rows are block-
// partitioned over the flattened index spaces. During assembly, an
// element owned by one rank contributes to node rows owned by another;
// those contributions are exchanged with a sparse all-to-all (counts
// exchange + targeted sends) and merged on the owning rank. The merge
// additions only exist in the parallel code path and are marked as the
// benchmark's *parallel-unique computation* — a small fraction of the
// run, matching Table 1 of the paper.
//
// Output signature: final CG residual norm, solution norm, and b . x.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "simmpi/topology.hpp"

namespace resilience::apps {

class MiniFeApp final : public App {
 public:
  struct Config {
    int nx = 6;          ///< elements per side (nodes per side = nx + 1)
    int cg_iters = 8;
    double mass_shift = 1.0;  ///< A = K + shift * I keeps the system SPD
    std::uint64_t material_seed = 0xfe1e57ULL;
  };

  /// Compressed-row sparsity of a block of matrix rows.
  struct Pattern {
    std::vector<std::size_t> row_ptr;  ///< rows.count() + 1 offsets
    std::vector<std::int64_t> col_idx;
  };

  static Config config_for_class(const std::string& size_class);

  /// The stencil pattern of rows [rows.lo, rows.hi) on an nx^3-element
  /// brick (nodes numbered x + (nx+1) * (y + (nx+1) * z)).
  static Pattern stencil_pattern(int nx, simmpi::BlockRange rows);

  MiniFeApp(Config config, std::string size_class);

  [[nodiscard]] std::string name() const override { return "MiniFE"; }
  [[nodiscard]] std::string size_class() const override { return size_class_; }
  [[nodiscard]] bool supports(int nranks) const override {
    const int elems = config_.nx * config_.nx * config_.nx;
    return nranks >= 1 && nranks <= elems;
  }
  [[nodiscard]] double checker_tolerance() const override { return 1e-9; }

  AppResult run(simmpi::Comm& comm) const override;

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  /// Reference 8x8 stiffness of the unit hexahedron (row-major).
  [[nodiscard]] const std::array<double, 64>& reference_stiffness() const {
    return ref_stiffness_;
  }

 private:
  Config config_;
  std::string size_class_;
  std::array<double, 64> ref_stiffness_{};
};

}  // namespace resilience::apps
