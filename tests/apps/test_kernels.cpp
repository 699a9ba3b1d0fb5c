// Direct tests of the shared distributed kernels the mini-apps build on.
#include "apps/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "apps/app.hpp"
#include "apps/cg.hpp"
#include "apps/minife.hpp"
#include "harness/runner.hpp"
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
    std::vector<Real> scratch;
    const auto full = allgather_blocks(comm, mine, 8, scratch);
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
    std::vector<Real> scratch;
    const auto full = allgather_blocks(comm, mine, 7, scratch);
    ASSERT_EQ(full.size(), 7u);
    for (int i = 0; i < 7; ++i) {
      EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(i)].value(), 100.0 + i);
    }
    // A second gather into the same (compacted) scratch buffer.
    for (auto& v : mine) v = v + Real(50.0);
    const auto again = allgather_blocks(comm, mine, 7, scratch);
    ASSERT_EQ(again.size(), 7u);
    for (int i = 0; i < 7; ++i) {
      EXPECT_DOUBLE_EQ(again[static_cast<std::size_t>(i)].value(), 150.0 + i);
    }
  });
  EXPECT_TRUE(result.ok);
}

TEST(Kernels, AllgatherBlocksOnOneRankIsTheLocalBlock) {
  const auto result = Runtime::run(1, [](Comm& comm) {
    const std::vector<Real> mine{Real(1.0), Real(2.0), Real(3.0)};
    std::vector<Real> scratch;
    const auto full = allgather_blocks(comm, mine, 3, scratch);
    EXPECT_EQ(full.data(), mine.data());  // no copy at all
    EXPECT_EQ(full.size(), 3u);
    EXPECT_TRUE(scratch.empty());
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

// ---- PackedReal vs Real, op by op -------------------------------------------

using fsefi::PackedReal;

std::pair<std::uint64_t, std::uint64_t> lanes(Real r) {
  return {std::bit_cast<std::uint64_t>(r.value()),
          std::bit_cast<std::uint64_t>(r.shadow())};
}

std::pair<std::uint64_t, std::uint64_t> lanes(PackedReal p) {
  return lanes(static_cast<Real>(p));
}

/// Signed zeros, infinities, subnormals, NaNs with payloads (quiet and
/// signalling, either sign) and ordinary values.
std::vector<double> special_values() {
  using limits = std::numeric_limits<double>;
  return {0.0,
          -0.0,
          limits::infinity(),
          -limits::infinity(),
          limits::denorm_min(),
          -limits::denorm_min(),
          0x1.8p-1030,
          -0x1.8p-1030,
          limits::min(),
          limits::max(),
          -2.5,
          1.0,
          3.0,
          std::bit_cast<double>(std::uint64_t{0x7ff8'0000'0000'1234}),
          std::bit_cast<double>(std::uint64_t{0xfff8'0000'0000'0abc}),
          std::bit_cast<double>(std::uint64_t{0x7ff0'0000'0000'0042})};
}

/// Lane by lane, `packed` equals `real` bit for bit, except where both of
/// a commutative op's operands are NaN: IEEE returns one of the two
/// NaNs, and the compiler may commute + and * for either form, so each
/// side must return a quieted copy of one of them.
void expect_same_lanes(PackedReal packed, Real real, Real a, Real b,
                       bool commutative, const std::string& where) {
  const auto quiet = [](double d) {
    return std::bit_cast<std::uint64_t>(d) | (std::uint64_t{1} << 51);
  };
  const auto lane_ok = [&](double p, double r, double x, double y) {
    const auto pb = std::bit_cast<std::uint64_t>(p);
    const auto rb = std::bit_cast<std::uint64_t>(r);
    if (pb == rb) return true;
    if (!commutative || !std::isnan(x) || !std::isnan(y)) return false;
    return (pb == quiet(x) || pb == quiet(y)) &&
           (rb == quiet(x) || rb == quiet(y));
  };
  const Real p = static_cast<Real>(packed);
  EXPECT_TRUE(lane_ok(p.value(), real.value(), a.value(), b.value()))
      << where << " primary";
  EXPECT_TRUE(lane_ok(p.shadow(), real.shadow(), a.shadow(), b.shadow()))
      << where << " shadow";
}

TEST(PackedReal, MatchesRealOpByOpOnSpecialValues) {
  const std::vector<double> vals = special_values();
  const std::size_t n = vals.size();
  // Primary and shadow lanes differ, so lanes are checked independently.
  const auto real_at = [&](std::size_t k) {
    return Real::corrupted(vals[k], vals[(k + 5) % n]);
  };
  for (std::size_t ia = 0; ia < n; ++ia) {
    const Real ra = real_at(ia);
    const PackedReal pa(ra);
    const auto where = ::testing::Message() << "a = " << vals[ia];
    EXPECT_EQ(lanes(pa), lanes(ra)) << where;
    EXPECT_EQ(lanes(sqrt(pa)), lanes(sqrt(ra))) << where;
    EXPECT_EQ(lanes(abs(pa)), lanes(abs(ra))) << where;
    EXPECT_EQ(lanes(-pa), lanes(-ra)) << where;
    EXPECT_EQ(isfinite(pa), isfinite(ra)) << where;
    EXPECT_EQ(isnan(pa), isnan(ra)) << where;
    EXPECT_EQ(lanes(PackedReal(vals[ia])), lanes(Real(vals[ia]))) << where;
    for (std::size_t ib = 0; ib < n; ++ib) {
      const Real rb = real_at(ib);
      const PackedReal pb(rb);
      const auto both = ::testing::Message()
                        << "a = " << vals[ia] << ", b = " << vals[ib];
      expect_same_lanes(pa + pb, ra + rb, ra, rb, true,
                        both.GetString() + " +");
      EXPECT_EQ(lanes(pa - pb), lanes(ra - rb)) << both;
      expect_same_lanes(pa * pb, ra * rb, ra, rb, true,
                        both.GetString() + " *");
      EXPECT_EQ(lanes(pa / pb), lanes(ra / rb)) << both;
      EXPECT_EQ(lanes(min(pa, pb)), lanes(min(ra, rb))) << both;
      EXPECT_EQ(lanes(max(pa, pb)), lanes(max(ra, rb))) << both;
      EXPECT_EQ(pa < pb, ra < rb) << both;
      EXPECT_EQ(pa > pb, ra > rb) << both;
      EXPECT_EQ(pa <= pb, ra <= rb) << both;
      EXPECT_EQ(pa >= pb, ra >= rb) << both;
      EXPECT_EQ(pa == pb, ra == rb) << both;
      EXPECT_EQ(pa != pb, ra != rb) << both;
    }
  }
}

TEST(PackedReal, AbsIsASignSelectAndMinFollowsThePrimary) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  // abs keeps -0.0 and a negative NaN as they are (fabs would clear the
  // sign), exactly as Real::abs does.
  EXPECT_EQ(bits(abs(PackedReal(-0.0)).value()), bits(-0.0));
  const double neg_nan =
      std::bit_cast<double>(std::uint64_t{0xfff8'0000'0000'0abc});
  EXPECT_EQ(bits(abs(PackedReal(neg_nan)).value()), bits(neg_nan));
  EXPECT_EQ(bits(abs(PackedReal(-2.0)).shadow()), bits(2.0));
  // min(a, b) is `b < a ? b : a` on the primaries: a NaN primary on
  // either side makes the compare false and selects `a`, whose shadow
  // comes along.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const PackedReal a(Real::corrupted(nan, 1.0));
  const PackedReal b(Real::corrupted(2.0, 3.0));
  EXPECT_EQ(lanes(min(a, b)), lanes(a));
  EXPECT_EQ(lanes(min(b, a)), lanes(b));
  EXPECT_EQ(lanes(min(a, b)), lanes(min(Real::corrupted(nan, 1.0),
                                          Real::corrupted(2.0, 3.0))));
  // Comparisons read the primary even when the shadow disagrees.
  EXPECT_TRUE(PackedReal(Real::corrupted(1.0, 5.0)) <
              PackedReal(Real::corrupted(2.0, 0.0)));
}

TEST(PackedReal, DivergenceMaskComparesBitPatterns) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto diverges = [](Real a, Real b, bool pair) {
    fsefi::DivergenceMask mask;
    if (pair) {
      mask.add(PackedReal(a), PackedReal(b));
    } else {
      mask.add(PackedReal(a));
      mask.add(PackedReal(b));
    }
    return mask.any();
  };
  for (const bool pair : {false, true}) {
    const Real clean(1.5);
    EXPECT_FALSE(diverges(clean, Real(nan), pair));
    EXPECT_FALSE(diverges(Real(-0.0), clean, pair));
    // Signed zeros and NaN payloads differ bitwise although they compare
    // equal or unordered; either slot of a pair is seen.
    EXPECT_TRUE(diverges(Real::corrupted(0.0, -0.0), clean, pair));
    EXPECT_TRUE(diverges(clean, Real::corrupted(0.0, -0.0), pair));
    EXPECT_TRUE(diverges(clean, Real::corrupted(nan, -nan), pair));
    EXPECT_TRUE(diverges(Real::corrupted(1.0, std::nextafter(1.0, 2.0)),
                         clean, pair));
  }
}

// ---- PENNANT and LU cells vs the per-op reference path ----------------------

harness::RunOutput run_app_mode(
    bool fast, const App& app, int nranks,
    const std::vector<fsefi::InjectionPlan>& plans) {
  fsefi::set_fast_real_enabled(fast);
  return harness::run_app_once(app, nranks, plans);
}

std::vector<std::uint64_t> double_bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> bits;
  for (const double d : v) bits.push_back(std::bit_cast<std::uint64_t>(d));
  return bits;
}

/// Everything a run leaves behind must match: how it ended (result or
/// exception), and per rank the profile, filtered ops, injection trace,
/// contamination and first-contamination op.
void expect_same_run(const harness::RunOutput& fast,
                     const harness::RunOutput& ref, const std::string& label) {
  EXPECT_EQ(fast.runtime.ok, ref.runtime.ok) << label;
  EXPECT_EQ(fast.runtime.error, ref.runtime.error) << label;
  EXPECT_EQ(fast.runtime.failed_rank, ref.runtime.failed_rank) << label;
  ASSERT_EQ(fast.result.has_value(), ref.result.has_value()) << label;
  if (fast.result) {
    EXPECT_EQ(double_bits(fast.result->signature),
              double_bits(ref.result->signature))
        << label;
  }
  EXPECT_EQ(fast.profiles, ref.profiles) << label;
  EXPECT_EQ(fast.filtered_ops, ref.filtered_ops) << label;
  EXPECT_EQ(fast.injection_events, ref.injection_events) << label;
  EXPECT_EQ(fast.contaminated, ref.contaminated) << label;
  EXPECT_EQ(fast.first_contamination_op, ref.first_contamination_op) << label;
}

/// One flip at dynamic op `op` of a single rank. Every kind is filtered,
/// so the filtered index is the dynamic index.
std::vector<fsefi::InjectionPlan> flip_at(std::uint64_t op,
                                          std::uint8_t operand,
                                          std::uint8_t bit) {
  fsefi::InjectionPlan plan;
  plan.kinds = fsefi::KindMask::All;
  plan.points = {{.op_index = op, .operand = operand, .bit = bit}};
  return {plan};
}

/// Runs `plans` fast and on the reference path; returns the fast run.
harness::RunOutput expect_fast_matches_reference(
    const App& app, int nranks, const std::vector<fsefi::InjectionPlan>& plans,
    const std::string& label) {
  const auto ref = run_app_mode(false, app, nranks, plans);
  const auto fast = run_app_mode(true, app, nranks, plans);
  expect_same_run(fast, ref, label);
  return fast;
}

/// The dynamic op of every Sqrt among the first `count`, on one rank. A
/// Sqrt has no second operand, so flipping "operand 1" changes nothing:
/// the probe records where the ops are without perturbing the run.
std::vector<std::uint64_t> sqrt_ops(const App& app, std::uint64_t count) {
  fsefi::InjectionPlan probe;
  probe.kinds = fsefi::KindMask::Sqrt;
  for (std::uint64_t k = 0; k < count; ++k) {
    probe.points.push_back({.op_index = k, .operand = 1, .bit = 0});
  }
  const auto out = run_app_mode(true, app, 1, {probe});
  std::vector<std::uint64_t> ops;
  for (const auto& ev : out.injection_events.at(0)) {
    ops.push_back(ev.op_total - 1);  // op_total counts the op itself
  }
  return ops;
}

/// The run's one flip landed on an op of `kind`: the plan hit the op of
/// the cell it was aimed at.
void expect_one_flip_of_kind(const harness::RunOutput& out, fsefi::OpKind kind,
                             const std::string& label) {
  const auto& events = out.injection_events.at(0);
  ASSERT_EQ(events.size(), 1u) << label;
  EXPECT_EQ(events[0].kind, kind) << label;
}

std::uint64_t total_ops(const harness::RunOutput& out, std::size_t rank) {
  return out.profiles.at(rank).total();
}

TEST(CellWindows, PennantMatchesPerOpReferenceBitForBit) {
  FastRealRestore restore;
  const auto app = make_app(AppId::PENNANT);
  // A viscosity cell on the compression branch is Sub, Mul, Div, Sqrt,
  // 4 Mul, Add, Mul; a CFL cell is Sub, Mul, Div, Sqrt, then 5 ops ending
  // in a Div. A CFL Sqrt is 9 ops from the next or previous one, a
  // viscosity Sqrt at least 10 from both.
  const std::vector<std::uint64_t> sq = sqrt_ops(*app, 3000);
  ASSERT_EQ(sq.size(), 3000u);
  std::vector<std::uint64_t> viscosity, cfl_first;
  for (std::size_t k = 0; k < sq.size(); ++k) {
    const bool prev9 = k > 0 && sq[k] - sq[k - 1] == 9;
    const bool next9 = k + 1 < sq.size() && sq[k + 1] - sq[k] == 9;
    if (!prev9 && !next9) viscosity.push_back(sq[k]);
    if (!prev9 && next9) cfl_first.push_back(sq[k]);
  }
  ASSERT_GE(viscosity.size(), 40u);
  ASSERT_GE(cfl_first.size(), 4u);

  const auto check = [&](std::uint64_t op, std::uint8_t operand,
                         std::uint8_t bit, fsefi::OpKind kind,
                         const std::string& what) {
    const std::string label = "PENNANT " + what + " op " + std::to_string(op);
    auto fast = expect_fast_matches_reference(
        *app, 1, flip_at(op, operand, bit), label);
    expect_one_flip_of_kind(fast, kind, label);
    return fast;
  };
  // Flips on the first op and on the tail of compression-branch cells.
  for (std::size_t k = 0; k < 40; ++k) {
    check(viscosity[k] - 3, 1, 50, fsefi::OpKind::Sub, "viscosity first");
    check(viscosity[k] + 6, 0, 2, fsefi::OpKind::Mul, "viscosity tail");
  }
  // Flips on the first and last op of CFL cells at the start, middle and
  // end of the loop.
  for (std::size_t s = 1; s < 4; ++s) {
    for (const std::uint64_t cell : {0u, 1u, 63u, 127u}) {
      const std::uint64_t sqrt_op = cfl_first[s] + 9 * cell;
      check(sqrt_op - 3, 0, 20, fsefi::OpKind::Sub, "CFL first");
      check(sqrt_op + 5, 1, 1, fsefi::OpKind::Div, "CFL last");
    }
  }
  // Flips inside windows of every loop, spread over the run.
  const auto golden = run_app_mode(true, *app, 1, {});
  const std::uint64_t total = total_ops(golden, 0);
  for (std::uint64_t k = 1; k < 24; ++k) {
    expect_fast_matches_reference(*app, 1, flip_at(total * k / 24, 0, 30),
                                  "PENNANT spread " + std::to_string(k));
  }
  // A sign flip on x in the node-position loop (Add of x += dt * v, node
  // 64) tangles the mesh: a zone-update cell throws inside a quiet
  // window, long after the flip. At 1 rank the position loop follows the
  // CFL loop's 128 cells (ending 5 ops after its last Sqrt), 128 ptot
  // Adds and 127 four-op node accelerations (the end nodes are walls).
  for (std::size_t s = 2; s < 5; ++s) {
    const std::uint64_t cfl_end = cfl_first[s] + 9 * 127 + 5;
    const std::uint64_t x_add = cfl_end + 1 + 128 + 127 * 4 + 2 * 64 + 1;
    const auto fast =
        check(x_add, 0, 63, fsefi::OpKind::Add, "x sign flip");
    EXPECT_NE(fast.runtime.error.find("mesh tangled"), std::string::npos)
        << fast.runtime.error;
  }
}

TEST(CellWindows, LuMatchesPerOpReferenceBitForBit) {
  FastRealRestore restore;
  const auto app = make_app(AppId::LU);
  // At 1 rank an LU iteration over the 128 x 12 grid is 1536 residual
  // cells of 6 ops (Mul first, Sub last), 1536 forward and 1536 backward
  // sweep cells of 4 (Add first, Mul last) and 1536 one-Add updates.
  constexpr std::uint64_t kCells = 1536;
  constexpr std::uint64_t kIter = kCells * (6 + 4 + 4 + 1);
  const auto golden = run_app_mode(true, *app, 1, {});
  ASSERT_GT(total_ops(golden, 0), 3 * kIter);
  const auto check = [&](std::uint64_t op, std::uint8_t bit,
                         fsefi::OpKind kind, const std::string& what) {
    const std::string label = "LU " + what + " op " + std::to_string(op);
    expect_one_flip_of_kind(
        expect_fast_matches_reference(*app, 1, flip_at(op, 0, bit), label),
        kind, label);
  };
  for (const std::uint64_t iter : {0u, 1u, 2u}) {
    const std::uint64_t base = iter * kIter;
    for (const std::uint64_t c : {0u, 1u, 11u, 12u, 777u, 1535u}) {
      check(base + 6 * c, 40, fsefi::OpKind::Mul, "residual first");
      check(base + 6 * c + 5, 3, fsefi::OpKind::Sub, "residual last");
      check(base + 6 * kCells + 4 * c, 52, fsefi::OpKind::Add, "forward first");
      check(base + 6 * kCells + 4 * c + 3, 7, fsefi::OpKind::Mul,
            "forward last");
      check(base + 10 * kCells + 4 * c, 45, fsefi::OpKind::Add,
            "backward first");
      check(base + 10 * kCells + 4 * c + 3, 0, fsefi::OpKind::Mul,
            "backward last");
      check(base + 14 * kCells + c, 61, fsefi::OpKind::Add, "update");
    }
  }
}

TEST(CellWindows, MultiRankPennantAndLuMatchPerOpReference) {
  FastRealRestore restore;
  for (const AppId id : {AppId::PENNANT, AppId::LU}) {
    const auto app = make_app(id);
    constexpr int kRanks = 4;
    const auto golden = run_app_mode(true, *app, kRanks, {});
    // Rank r flips at (r + 1) / 5 of its run, so corrupted halos and
    // collectives reach ranks whose own windows are still clean.
    std::vector<fsefi::InjectionPlan> plans(kRanks);
    for (int r = 0; r < kRanks; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      plans[ri].kinds = fsefi::KindMask::All;
      plans[ri].points = {{.op_index = total_ops(golden, ri) *
                                       static_cast<std::uint64_t>(r + 1) / 5,
                           .operand = static_cast<std::uint8_t>(r % 2),
                           .bit = static_cast<std::uint8_t>(10 + 12 * r)}};
    }
    expect_fast_matches_reference(*app, kRanks, plans,
                                  app->label() + " 4 ranks");
  }
}

// ---- CG's and MiniFE's kernels vs the per-op reference path -----------------

/// CG's sparse matvec: q = A x over every row of `a` (double entries).
void cg_matvec(const SparseMatrix& a, std::span<const Real> x,
               std::span<Real> q) {
  csr_matvec(
      [&](std::size_t i) {
        const auto g = static_cast<std::int64_t>(i);
        return std::pair{a.row_vals(g), a.row_cols(g)};
      },
      widest_row(a.row_ptr), x, 0, q);
}

/// MiniFE's sparse matvec: q = A x over the rows of `pat` (Real entries).
void minife_matvec(const MiniFeApp::Pattern& pat, std::span<const Real> vals,
                   std::span<const Real> x, std::span<Real> q) {
  csr_matvec(
      [&](std::size_t i) {
        const std::size_t first = pat.row_ptr[i];
        const std::size_t count = pat.row_ptr[i + 1] - first;
        return std::pair{vals.subspan(first, count),
                         std::span<const std::int64_t>(pat.col_idx)
                             .subspan(first, count)};
      },
      widest_row(pat.row_ptr), x, 0, q);
}

/// The CG and MiniFE kernels the test drives directly.
enum class SolverKernel { CgMatvec, MiniFeMatvec, Dot, Axpy, Xpby };

/// Everything one kernel call leaves behind, as StencilRun.
StencilRun run_solver_kernel(bool fast, SolverKernel kernel, Prep prep) {
  fsefi::set_fast_real_enabled(fast);  // latched by arm()/reset() below
  fsefi::FaultContext ctx;
  // 300-element vectors: two whole 128-element chunks and a partial one.
  constexpr std::size_t kLen = 300;
  const CgApp cg(CgApp::config_for_class("S"), "S");
  const auto pat = MiniFeApp::stencil_pattern(6, {.lo = 0, .hi = 343});
  std::vector<Real> vals = smooth_field(pat.col_idx.size(), 1.5);
  std::vector<Real> x = smooth_field(kernel == SolverKernel::CgMatvec ? 256
                                     : kernel == SolverKernel::MiniFeMatvec
                                         ? 343
                                         : kLen,
                                     0.2);
  std::vector<Real> y = smooth_field(kLen, 0.9);
  Real scalar(0.7);
  const auto& row_ptr = cg.matrix().row_ptr;
  if (prep == Prep::Armed) {
    // Every kind is filtered, so an op's filtered index is its dynamic
    // index. Matvec flips land on the first and the last op of row 37
    // and mid-way through row 200; BLAS-1 flips on the last op of the
    // first 128-element chunk, the first op of the second and an op of
    // the partial chunk.
    std::vector<std::uint64_t> ops;
    if (kernel == SolverKernel::CgMatvec) {
      ops = {2 * static_cast<std::uint64_t>(row_ptr[37]),
             2 * static_cast<std::uint64_t>(row_ptr[38]) - 1,
             2 * static_cast<std::uint64_t>(row_ptr[200]) + 3};
    } else if (kernel == SolverKernel::MiniFeMatvec) {
      ops = {2 * pat.row_ptr[37], 2 * pat.row_ptr[38] - 1,
             2 * pat.row_ptr[200] + 3};
    } else {
      ops = {255, 256, 2 * 280 + 1};
    }
    fsefi::InjectionPlan plan;
    plan.kinds = fsefi::KindMask::All;
    for (std::size_t k = 0; k < ops.size(); ++k) {
      plan.points.push_back({.op_index = ops[k],
                             .operand = static_cast<std::uint8_t>(k % 2),
                             .bit = static_cast<std::uint8_t>(40 + 5 * k)});
    }
    ctx.arm(std::move(plan));
  } else {
    ctx.reset();
    // A gathered x entry, a MiniFE matrix value, a dot input or the
    // axpy/xpby scalar, already diverged.
    if (kernel == SolverKernel::CgMatvec) {
      x[100] = diverge(x[100]);
    } else if (kernel == SolverKernel::MiniFeMatvec) {
      vals[2000] = diverge(vals[2000]);
    } else if (kernel == SolverKernel::Dot) {
      x[200] = diverge(x[200]);
    } else {
      scalar = diverge(scalar);
    }
    if (prep == Prep::Contaminated) ctx.note_external_taint();
  }
  std::vector<Real> out;
  {
    fsefi::ContextGuard guard(&ctx);
    switch (kernel) {
      case SolverKernel::CgMatvec:
        out.resize(256);
        cg_matvec(cg.matrix(), x, out);
        break;
      case SolverKernel::MiniFeMatvec:
        out.resize(343);
        minife_matvec(pat, vals, x, out);
        break;
      case SolverKernel::Dot:
        out = {local_dot(x, y)};
        break;
      case SolverKernel::Axpy:
        axpy(scalar, x, y);
        out = y;
        break;
      case SolverKernel::Xpby:
        xpby(x, scalar, y);
        out = y;
        break;
    }
  }
  return {real_bits(out),      ctx.profile(),
          ctx.filtered_ops(),  ctx.injection_events(),
          ctx.contaminated(),  ctx.first_contamination_op()};
}

/// The first Sqrt of every rank of an `nranks` run (probed as sqrt_ops).
std::vector<std::uint64_t> first_sqrt_ops(const App& app, int nranks) {
  fsefi::InjectionPlan probe;
  probe.kinds = fsefi::KindMask::Sqrt;
  probe.points = {{.op_index = 0, .operand = 1, .bit = 0}};
  const auto out = run_app_mode(
      true, app, nranks,
      std::vector<fsefi::InjectionPlan>(static_cast<std::size_t>(nranks),
                                        probe));
  std::vector<std::uint64_t> ops;
  for (const auto& events : out.injection_events) {
    EXPECT_EQ(events.size(), 1u);
    ops.push_back(events.empty() ? 0 : events[0].op_total - 1);
  }
  return ops;
}

TEST(CellWindows, CgAndMiniFeMatchPerOpReferenceBitForBit) {
  FastRealRestore restore;
  for (const SolverKernel kernel :
       {SolverKernel::CgMatvec, SolverKernel::MiniFeMatvec, SolverKernel::Dot,
        SolverKernel::Axpy, SolverKernel::Xpby}) {
    for (const Prep prep :
         {Prep::Armed, Prep::PreTaintedU, Prep::Contaminated}) {
      const auto where = ::testing::Message()
                         << "kernel " << static_cast<int>(kernel) << " prep "
                         << static_cast<int>(prep);
      const StencilRun fast = run_solver_kernel(true, kernel, prep);
      const StencilRun ref = run_solver_kernel(false, kernel, prep);
      EXPECT_EQ(fast.bits, ref.bits) << where;
      EXPECT_EQ(fast.profile, ref.profile) << where;
      EXPECT_EQ(fast.filtered_ops, ref.filtered_ops) << where;
      EXPECT_EQ(fast.events, ref.events) << where;
      EXPECT_EQ(fast.contaminated, ref.contaminated) << where;
      EXPECT_EQ(fast.first_contamination_op, ref.first_contamination_op)
          << where;
      // Every setup diverges somewhere, so contamination is always seen.
      EXPECT_TRUE(fast.contaminated) << where;
      if (prep == Prep::Armed) {
        EXPECT_EQ(fast.events.size(), 3u) << where;
      }
    }
  }

  // Whole runs at 1 and 4 ranks with flips on a row cell's first op (a
  // Mul) and last op (an Add), in the first two matvecs of each rank. A
  // CG rank's first matvec follows its 2 * rows ops of r . r; a MiniFE
  // rank's follows its first Sqrt (the initial residual norm). One CG
  // iteration after the matvec runs 10 * rows + 2 more ops.
  for (const AppId id : {AppId::CG, AppId::MiniFE}) {
    const auto app = make_app(id);
    for (const int nranks : {1, 4}) {
      std::vector<std::uint64_t> start(static_cast<std::size_t>(nranks));
      std::vector<std::vector<std::uint64_t>> offsets;  // row starts, in ops
      std::vector<std::uint64_t> period(static_cast<std::size_t>(nranks));
      const auto sqrts = id == AppId::MiniFE
                             ? first_sqrt_ops(*app, nranks)
                             : std::vector<std::uint64_t>{};
      for (int r = 0; r < nranks; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        std::vector<std::uint64_t> rows_at{0};
        if (id == AppId::CG) {
          const auto& a = dynamic_cast<const CgApp&>(*app).matrix();
          const auto rows = simmpi::block_partition(a.n, nranks, r);
          for (std::int64_t i = rows.lo; i < rows.hi; ++i) {
            rows_at.push_back(
                2 * static_cast<std::uint64_t>(
                        a.row_ptr[static_cast<std::size_t>(i + 1)] -
                        a.row_ptr[static_cast<std::size_t>(rows.lo)]));
          }
          const auto n = static_cast<std::uint64_t>(rows.count());
          start[ri] = 2 * n;
          period[ri] = rows_at.back() + 10 * n + 2;
        } else {
          const auto rows = simmpi::block_partition(343, nranks, r);
          const auto pat = MiniFeApp::stencil_pattern(6, rows);
          for (std::size_t i = 1; i < pat.row_ptr.size(); ++i) {
            rows_at.push_back(2 * pat.row_ptr[i]);
          }
          start[ri] = sqrts[ri] + 1;
        }
        offsets.push_back(std::move(rows_at));
      }
      for (const std::size_t row : {0u, 1u, 17u, 42u}) {
        for (const bool last : {false, true}) {
          std::vector<fsefi::InjectionPlan> plans(
              static_cast<std::size_t>(nranks));
          for (int r = 0; r < nranks; ++r) {
            const auto ri = static_cast<std::size_t>(r);
            // Rank r aims at row + 5r, in the second matvec on odd ranks
            // of CG.
            const std::size_t i = row + 5 * ri;
            std::uint64_t op = start[ri] + (last ? offsets[ri][i + 1] - 1
                                                  : offsets[ri][i]);
            if (id == AppId::CG && r % 2 == 1) op += period[ri];
            plans[ri].kinds = fsefi::KindMask::All;
            plans[ri].points = {
                {.op_index = op,
                 .operand = static_cast<std::uint8_t>(last ? 0 : 1),
                 .bit = static_cast<std::uint8_t>(30 + 7 * r)}};
          }
          const std::string label =
              app->label() + " " + std::to_string(nranks) + " ranks row " +
              std::to_string(row) + (last ? " last" : " first");
          const auto fast =
              expect_fast_matches_reference(*app, nranks, plans, label);
          for (int r = 0; r < nranks; ++r) {
            const auto& events =
                fast.injection_events.at(static_cast<std::size_t>(r));
            ASSERT_EQ(events.size(), 1u) << label << " rank " << r;
            EXPECT_EQ(events[0].kind,
                      last ? fsefi::OpKind::Add : fsefi::OpKind::Mul)
                << label << " rank " << r;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace resilience::apps
