// Direct tests of the shared distributed kernels the mini-apps build on.
#include "apps/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "apps/app.hpp"
#include "simmpi/runtime.hpp"

namespace resilience::apps {
namespace {

using simmpi::Comm;
using simmpi::Runtime;

TEST(Kernels, LocalDotMatchesHandComputation) {
  const std::vector<Real> a{1.0, 2.0, 3.0};
  const std::vector<Real> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(local_dot(a, b).value(), 32.0);
  EXPECT_DOUBLE_EQ(local_dot({}, {}).value(), 0.0);
}

TEST(Kernels, GlobalDotSumsAcrossRanks) {
  const auto result = Runtime::run(4, [](Comm& comm) {
    const std::vector<Real> mine{Real(comm.rank() + 1.0)};
    const Real dot = global_dot(comm, mine, mine);
    // 1 + 4 + 9 + 16
    EXPECT_DOUBLE_EQ(dot.value(), 30.0);
  });
  EXPECT_TRUE(result.ok);
}

TEST(Kernels, AxpyAndXpby) {
  std::vector<Real> x{1.0, 2.0};
  std::vector<Real> y{10.0, 20.0};
  axpy(Real(2.0), x, y);
  EXPECT_DOUBLE_EQ(y[0].value(), 12.0);
  EXPECT_DOUBLE_EQ(y[1].value(), 24.0);
  xpby(x, Real(0.5), y);
  EXPECT_DOUBLE_EQ(y[0].value(), 7.0);   // 1 + 0.5*12
  EXPECT_DOUBLE_EQ(y[1].value(), 14.0);  // 2 + 0.5*24
}

TEST(Kernels, GlobalNorm2) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    const std::vector<Real> mine{Real(3.0 * (comm.rank() + 1))};  // 3, 6
    EXPECT_NEAR(global_norm2(comm, mine).value(), std::sqrt(45.0), 1e-12);
  });
  EXPECT_TRUE(result.ok);
}

TEST(Kernels, AllgatherBlocksEvenPartition) {
  const auto result = Runtime::run(4, [](Comm& comm) {
    const auto range = simmpi::block_partition(8, comm.size(), comm.rank());
    std::vector<Real> mine;
    for (auto i = range.lo; i < range.hi; ++i) mine.push_back(Real(i * 1.5));
    const auto full = allgather_blocks(comm, mine, 8);
    ASSERT_EQ(full.size(), 8u);
    for (int i = 0; i < 8; ++i) {
      EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(i)].value(), i * 1.5);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(Kernels, AllgatherBlocksUnevenPartition) {
  // 7 elements over 3 ranks: blocks of 3, 2, 2 — exercises the padding.
  const auto result = Runtime::run(3, [](Comm& comm) {
    const auto range = simmpi::block_partition(7, comm.size(), comm.rank());
    std::vector<Real> mine;
    for (auto i = range.lo; i < range.hi; ++i) mine.push_back(Real(100.0 + i));
    const auto full = allgather_blocks(comm, mine, 7);
    ASSERT_EQ(full.size(), 7u);
    for (int i = 0; i < 7; ++i) {
      EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(i)].value(), 100.0 + i);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(Kernels, HaloExchangeChain) {
  const auto result = Runtime::run(4, [](Comm& comm) {
    const int prev = comm.rank() > 0 ? comm.rank() - 1 : -1;
    const int next = comm.rank() + 1 < comm.size() ? comm.rank() + 1 : -1;
    const std::vector<Real> top{Real(comm.rank() * 10.0)};
    const std::vector<Real> bottom{Real(comm.rank() * 10.0 + 1.0)};
    std::vector<Real> from_prev{Real(-1.0)}, from_next{Real(-1.0)};
    exchange_halo_rows(comm, 5, top, bottom, from_prev, from_next, prev, next);
    if (prev >= 0) {
      EXPECT_DOUBLE_EQ(from_prev[0].value(), prev * 10.0 + 1.0);
    } else {
      EXPECT_DOUBLE_EQ(from_prev[0].value(), -1.0);  // untouched at the end
    }
    if (next >= 0) {
      EXPECT_DOUBLE_EQ(from_next[0].value(), next * 10.0);
    } else {
      EXPECT_DOUBLE_EQ(from_next[0].value(), -1.0);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(Kernels, HaloExchangePropagatesCorruption) {
  // A corrupted halo row contaminates the receiving neighbour.
  std::vector<std::unique_ptr<fsefi::FaultContext>> contexts;
  for (int r = 0; r < 3; ++r) {
    contexts.push_back(std::make_unique<fsefi::FaultContext>());
  }
  simmpi::RunOptions opts;
  opts.on_rank_start = [&](int rank) {
    contexts[static_cast<std::size_t>(rank)]->reset();
    fsefi::install_context(contexts[static_cast<std::size_t>(rank)].get());
  };
  opts.on_rank_exit = [](int) { fsefi::install_context(nullptr); };
  const auto result = Runtime::run(
      3,
      [](Comm& comm) {
        const int prev = comm.rank() > 0 ? comm.rank() - 1 : -1;
        const int next = comm.rank() + 1 < comm.size() ? comm.rank() + 1 : -1;
        std::vector<Real> row{comm.rank() == 1
                                  ? Real::corrupted(5.0, 1.0)
                                  : Real(0.0)};
        std::vector<Real> from_prev{Real(0.0)}, from_next{Real(0.0)};
        exchange_halo_rows(comm, 3, row, row, from_prev, from_next, prev,
                           next);
      },
      opts);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(contexts[0]->contaminated());  // received rank 1's halo
  EXPECT_TRUE(contexts[2]->contaminated());
}

TEST(Kernels, GuardFiniteThrowsOnBadValues) {
  EXPECT_NO_THROW(guard_finite(Real(1.0), "x"));
  EXPECT_THROW(guard_finite(Real(1.0) / Real(0.0), "x"), NumericalError);
  EXPECT_THROW(guard_finite(Real(0.0) / Real(0.0), "x"), NumericalError);
}

// ---- MG's blocked stencils vs the per-op reference path --------------------

/// Restores the production default on scope exit so later tests in this
/// binary see the ordinary configuration.
struct FastRealRestore {
  ~FastRealRestore() { fsefi::set_fast_real_enabled(true); }
};

enum class Stencil { Jacobi, Residual };

/// How the context and inputs are prepared before the stencil runs.
enum class Prep {
  Armed,           ///< three injections on a clean block
  PreTaintedU,     ///< clean context, one u value already diverged
  PreTaintedF,     ///< clean context, one f value already diverged
  PreTaintedHalo,  ///< clean context, one value of a read halo row diverged
  Contaminated,    ///< context already contaminated, one u value diverged
};

constexpr int kGridRows = 12;
constexpr int kGridCols = 5;
constexpr double kOmega = 0.8;

/// Top-edge, interior and bottom-edge row blocks of the 12 x 5 grid.
constexpr RowBlock kBlocks[] = {{.lo = 0, .count = 4, .rows = kGridRows,
                                 .cols = kGridCols},
                                {.lo = 4, .count = 4, .rows = kGridRows,
                                 .cols = kGridCols},
                                {.lo = 8, .count = 4, .rows = kGridRows,
                                 .cols = kGridCols}};

std::uint64_t ops_per_cell(Stencil stencil) {
  return stencil == Stencil::Jacobi ? 9 : 6;
}

std::vector<Real> smooth_field(std::size_t n, double phase) {
  std::vector<Real> v(n);
  for (std::size_t k = 0; k < n; ++k) {
    v[k] = Real(std::sin(phase + 0.37 * static_cast<double>(k)));
  }
  return v;
}

Real diverge(Real r) { return Real::corrupted(r.value(), r.value() + 1e-3); }

/// The stencil's inputs on one block; the halo rows are always filled, so
/// a kernel reading one past the grid's edge would show in the output.
struct StencilInputs {
  std::vector<Real> u, f, above, below;
};

StencilInputs make_inputs(const RowBlock& block) {
  const auto cells = static_cast<std::size_t>(block.count * block.cols);
  const auto width = static_cast<std::size_t>(block.cols);
  return {smooth_field(cells, 0.1 * block.lo), smooth_field(cells, 2.0),
          smooth_field(width, 3.0), smooth_field(width, 4.0)};
}

std::vector<Real> apply(Stencil stencil, const RowBlock& block,
                        const StencilInputs& in) {
  std::vector<Real> out(in.u.size());
  if (stencil == Stencil::Jacobi) {
    jacobi_sweep(block, in.u, in.f, in.above, in.below, kOmega, out);
  } else {
    stencil_residual(block, in.u, in.f, in.above, in.below, out);
  }
  return out;
}

std::vector<std::uint64_t> real_bits(const std::vector<Real>& v) {
  std::vector<std::uint64_t> bits;
  for (const Real r : v) {
    bits.push_back(std::bit_cast<std::uint64_t>(r.value()));
    bits.push_back(std::bit_cast<std::uint64_t>(r.shadow()));
  }
  return bits;
}

/// Everything one stencil pass leaves behind: the output's value and
/// shadow bits and every observable of the context.
struct StencilRun {
  std::vector<std::uint64_t> bits;
  fsefi::OpCountProfile profile;
  std::uint64_t filtered_ops = 0;
  std::vector<fsefi::InjectionEvent> events;
  bool contaminated = false;
  std::uint64_t first_contamination_op = 0;
};

StencilRun run_stencil_under_context(bool fast, Stencil stencil,
                                     const RowBlock& block, Prep prep) {
  fsefi::set_fast_real_enabled(fast);  // latched by arm()/reset() below
  fsefi::FaultContext ctx;
  StencilInputs in = make_inputs(block);
  if (prep == Prep::Armed) {
    // Every kind is filtered, so an op's filtered index is its dynamic
    // index: cell c's ops are [c * k, (c + 1) * k). The flips land
    // mid-way through cell 5, on the first op of cell 9 and on the last
    // op of cell 13, each after a quiet window of whole cells.
    const std::uint64_t k = ops_per_cell(stencil);
    fsefi::InjectionPlan plan;
    plan.kinds = fsefi::KindMask::All;
    plan.points = {{.op_index = 5 * k + 4, .operand = 1, .bit = 52},
                   {.op_index = 9 * k, .operand = 0, .bit = 40},
                   {.op_index = 14 * k - 1, .operand = 1, .bit = 3}};
    ctx.arm(std::move(plan));
  } else {
    ctx.reset();
    if (prep == Prep::PreTaintedF) {
      in.f[7] = diverge(in.f[7]);
    } else if (prep == Prep::PreTaintedHalo) {
      // The top-edge block reads only `below`; the others read `above`.
      auto& halo = block.lo == 0 ? in.below : in.above;
      halo[2] = diverge(halo[2]);
    } else {
      in.u[11] = diverge(in.u[11]);
    }
    if (prep == Prep::Contaminated) ctx.note_external_taint();
  }
  std::vector<Real> out;
  {
    fsefi::ContextGuard guard(&ctx);
    out = apply(stencil, block, in);
  }
  return {real_bits(out),      ctx.profile(),
          ctx.filtered_ops(),  ctx.injection_events(),
          ctx.contaminated(),  ctx.first_contamination_op()};
}

TEST(MgStencil, BlockedMatchesPerOpReferenceBitForBit) {
  FastRealRestore restore;
  for (const Stencil stencil : {Stencil::Jacobi, Stencil::Residual}) {
    for (const RowBlock& block : kBlocks) {
      for (const Prep prep :
           {Prep::Armed, Prep::PreTaintedU, Prep::PreTaintedF,
            Prep::PreTaintedHalo, Prep::Contaminated}) {
        const auto where = ::testing::Message()
                           << (stencil == Stencil::Jacobi ? "jacobi"
                                                          : "residual")
                           << " block lo " << block.lo << " prep "
                           << static_cast<int>(prep);
        const StencilRun fast =
            run_stencil_under_context(true, stencil, block, prep);
        const StencilRun ref =
            run_stencil_under_context(false, stencil, block, prep);
        EXPECT_EQ(fast.bits, ref.bits) << where;
        EXPECT_EQ(fast.profile, ref.profile) << where;
        EXPECT_EQ(fast.filtered_ops, ref.filtered_ops) << where;
        EXPECT_EQ(fast.events, ref.events) << where;
        EXPECT_EQ(fast.contaminated, ref.contaminated) << where;
        EXPECT_EQ(fast.first_contamination_op, ref.first_contamination_op)
            << where;
        // Every setup diverges somewhere, so contamination is always seen.
        EXPECT_TRUE(fast.contaminated) << where;
        EXPECT_EQ(fast.profile.total(),
                  static_cast<std::uint64_t>(block.count * block.cols) *
                      ops_per_cell(stencil))
            << where;
        if (prep == Prep::Armed) {
          EXPECT_EQ(fast.events.size(), 3u) << where;
        }
      }
    }
  }
}

TEST(MgStencil, NoContextMatchesFaultFreeInstrumentedRun) {
  FastRealRestore restore;
  for (const bool fast : {true, false}) {
    for (const Stencil stencil : {Stencil::Jacobi, Stencil::Residual}) {
      for (const RowBlock& block : kBlocks) {
        const StencilInputs in = make_inputs(block);
        const std::vector<Real> bare = apply(stencil, block, in);
        fsefi::set_fast_real_enabled(fast);
        fsefi::FaultContext ctx;
        ctx.reset();
        std::vector<Real> counted;
        {
          fsefi::ContextGuard guard(&ctx);
          counted = apply(stencil, block, in);
        }
        EXPECT_EQ(real_bits(bare), real_bits(counted))
            << (fast ? "fast " : "reference ") << static_cast<int>(stencil)
            << " block lo " << block.lo;
        EXPECT_FALSE(ctx.contaminated());
      }
    }
  }
}

}  // namespace
}  // namespace resilience::apps
