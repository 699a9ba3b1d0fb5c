// Direct numerical validation of the FFT kernel behind FT: agreement with
// a naive O(n^2) DFT, linearity, round-trip identity, and Parseval's
// theorem — swept across sizes with a parameterized suite — plus a
// differential test of the blocked butterfly kernel against the per-op
// reference path.
#include "apps/fft.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <numbers>

#include "util/rng.hpp"

namespace resilience::apps {
namespace {

std::vector<RComplex> random_signal(int n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<RComplex> signal(static_cast<std::size_t>(n));
  for (auto& c : signal) {
    c.re = fsefi::Real(rng.uniform_real(-1.0, 1.0));
    c.im = fsefi::Real(rng.uniform_real(-1.0, 1.0));
  }
  return signal;
}

/// Reference DFT: X_k = sum_j x_j exp(-2 pi i j k / n).
std::vector<std::complex<double>> naive_dft(const std::vector<RComplex>& x) {
  const int n = static_cast<int>(x.size());
  std::vector<std::complex<double>> out(x.size());
  for (int k = 0; k < n; ++k) {
    std::complex<double> acc = 0.0;
    for (int j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi * j * k / n;
      acc += std::complex<double>(x[static_cast<std::size_t>(j)].re.value(),
                                  x[static_cast<std::size_t>(j)].im.value()) *
             std::polar(1.0, angle);
    }
    out[static_cast<std::size_t>(k)] = acc;
  }
  return out;
}

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const int n = GetParam();
  const FftPlan plan(n);
  auto signal = random_signal(n, 42);
  const auto reference = naive_dft(signal);
  plan.transform(std::span<RComplex>(signal), /*inverse=*/false);
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(signal[static_cast<std::size_t>(k)].re.value(),
                reference[static_cast<std::size_t>(k)].real(), 1e-9 * n);
    EXPECT_NEAR(signal[static_cast<std::size_t>(k)].im.value(),
                reference[static_cast<std::size_t>(k)].imag(), 1e-9 * n);
  }
}

TEST_P(FftSizes, RoundTripIsIdentityUpToScale) {
  const int n = GetParam();
  const FftPlan plan(n);
  const auto original = random_signal(n, 7);
  auto signal = original;
  plan.transform(std::span<RComplex>(signal), false);
  plan.transform(std::span<RComplex>(signal), true);
  // forward + inverse without normalization multiplies by n.
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(signal[static_cast<std::size_t>(i)].re.value(),
                n * original[static_cast<std::size_t>(i)].re.value(), 1e-9 * n);
    EXPECT_NEAR(signal[static_cast<std::size_t>(i)].im.value(),
                n * original[static_cast<std::size_t>(i)].im.value(), 1e-9 * n);
  }
}

TEST_P(FftSizes, ParsevalHolds) {
  const int n = GetParam();
  const FftPlan plan(n);
  auto signal = random_signal(n, 99);
  double time_energy = 0.0;
  for (const auto& c : signal) {
    time_energy += c.re.value() * c.re.value() + c.im.value() * c.im.value();
  }
  plan.transform(std::span<RComplex>(signal), false);
  double freq_energy = 0.0;
  for (const auto& c : signal) {
    freq_energy += c.re.value() * c.re.value() + c.im.value() * c.im.value();
  }
  EXPECT_NEAR(freq_energy, n * time_energy, 1e-8 * n * time_energy);
}

TEST_P(FftSizes, Linearity) {
  const int n = GetParam();
  const FftPlan plan(n);
  auto a = random_signal(n, 1);
  auto b = random_signal(n, 2);
  std::vector<RComplex> sum(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sum[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)] +
                                       b[static_cast<std::size_t>(i)];
  }
  plan.transform(std::span<RComplex>(a), false);
  plan.transform(std::span<RComplex>(b), false);
  plan.transform(std::span<RComplex>(sum), false);
  for (int i = 0; i < n; ++i) {
    const auto expected = a[static_cast<std::size_t>(i)] +
                          b[static_cast<std::size_t>(i)];
    EXPECT_NEAR(sum[static_cast<std::size_t>(i)].re.value(),
                expected.re.value(), 1e-9 * n);
    EXPECT_NEAR(sum[static_cast<std::size_t>(i)].im.value(),
                expected.im.value(), 1e-9 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwo, FftSizes,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128));

TEST(FftPlan, DeltaTransformsToConstant) {
  const FftPlan plan(8);
  std::vector<RComplex> delta(8);
  delta[0].re = fsefi::Real(1.0);
  plan.transform(std::span<RComplex>(delta), false);
  for (const auto& c : delta) {
    EXPECT_NEAR(c.re.value(), 1.0, 1e-12);
    EXPECT_NEAR(c.im.value(), 0.0, 1e-12);
  }
}

TEST(FftPlan, RejectsBadSizes) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(1), std::invalid_argument);
  EXPECT_THROW(FftPlan(12), std::invalid_argument);
  EXPECT_THROW(FftPlan(-8), std::invalid_argument);
}

TEST(FftPlan, RejectsWrongRowLength) {
  const FftPlan plan(8);
  std::vector<RComplex> wrong(4);
  EXPECT_THROW(plan.transform(std::span<RComplex>(wrong), false),
               std::invalid_argument);
}

TEST(FftPlan, OperationsAreInstrumented) {
  fsefi::FaultContext ctx;
  fsefi::ContextGuard guard(&ctx);
  const FftPlan plan(16);
  auto signal = random_signal(16, 3);
  plan.transform(std::span<RComplex>(signal), false);
  // (n/2) log2(n) butterflies, each one complex mul (4 mul + 2 add/sub)
  // and two complex add/sub (4 add/sub) = 10 instrumented ops.
  EXPECT_EQ(ctx.ops_total(), 8u * 4u * 10u);  // butterflies * ops each
}

// ---- blocked butterflies vs the per-op reference path -----------------

/// Restores the production default on scope exit so later tests in this
/// binary see the ordinary configuration.
struct FastRealRestore {
  ~FastRealRestore() { fsefi::set_fast_real_enabled(true); }
};

/// How the context is prepared before the transform.
enum class Prep {
  Armed,         ///< two injections land mid-stage on a clean signal
  PreTainted,    ///< clean context, one input already diverged
  Contaminated,  ///< context already contaminated, one input diverged
};

/// Everything one transform leaves behind: the output's value and shadow
/// bits and every observable of the context.
struct TransformRun {
  std::vector<std::uint64_t> bits;
  fsefi::OpCountProfile profile;
  std::uint64_t filtered_ops = 0;
  std::vector<fsefi::InjectionEvent> events;
  bool contaminated = false;
  std::uint64_t first_contamination_op = 0;
};

std::vector<std::uint64_t> output_bits(const std::vector<RComplex>& row) {
  std::vector<std::uint64_t> bits;
  for (const auto& c : row) {
    for (const fsefi::Real r : {c.re, c.im}) {
      bits.push_back(std::bit_cast<std::uint64_t>(r.value()));
      bits.push_back(std::bit_cast<std::uint64_t>(r.shadow()));
    }
  }
  return bits;
}

constexpr int kDiffSize = 64;

TransformRun run_under_context(bool fast, Prep prep, bool inverse) {
  fsefi::set_fast_real_enabled(fast);  // latched by arm()/reset() below
  fsefi::FaultContext ctx;
  auto signal = random_signal(kDiffSize, 11);
  if (prep == Prep::Armed) {
    // The default AddMul filter sees 7 of a butterfly's 10 ops, so one
    // 32-butterfly stage is 224 filtered ops: 772 lands mid-way through
    // stage 4 and 933 early in stage 5.
    fsefi::InjectionPlan plan;
    plan.points = {{.op_index = 772, .operand = 1, .bit = 40},
                   {.op_index = 933, .operand = 0, .bit = 51}};
    ctx.arm(std::move(plan));
  } else {
    ctx.reset();
    auto& tainted = signal[37].re;
    tainted = fsefi::Real::corrupted(tainted.value(), tainted.value() + 1e-3);
    if (prep == Prep::Contaminated) ctx.note_external_taint();
  }
  {
    fsefi::ContextGuard guard(&ctx);
    FftPlan(kDiffSize).transform(std::span<RComplex>(signal), inverse);
  }
  return {output_bits(signal),   ctx.profile(),
          ctx.filtered_ops(),    ctx.injection_events(),
          ctx.contaminated(),    ctx.first_contamination_op()};
}

TEST(FftBlockedKernel, MatchesPerOpReferenceBitForBit) {
  FastRealRestore restore;
  for (const Prep prep :
       {Prep::Armed, Prep::PreTainted, Prep::Contaminated}) {
    for (const bool inverse : {false, true}) {
      const auto where = ::testing::Message()
                         << "prep " << static_cast<int>(prep)
                         << (inverse ? " inverse" : " forward");
      const TransformRun fast = run_under_context(true, prep, inverse);
      const TransformRun ref = run_under_context(false, prep, inverse);
      EXPECT_EQ(fast.bits, ref.bits) << where;
      EXPECT_EQ(fast.profile, ref.profile) << where;
      EXPECT_EQ(fast.filtered_ops, ref.filtered_ops) << where;
      EXPECT_EQ(fast.events, ref.events) << where;
      EXPECT_EQ(fast.contaminated, ref.contaminated) << where;
      EXPECT_EQ(fast.first_contamination_op, ref.first_contamination_op)
          << where;
      // Every setup diverges somewhere, so contamination is always seen.
      EXPECT_TRUE(fast.contaminated) << where;
      EXPECT_EQ(fast.profile.total(), 6u * 32u * 10u) << where;
      if (prep == Prep::Armed) {
        EXPECT_EQ(fast.events.size(), 2u) << where;
      }
    }
  }
}

TEST(FftBlockedKernel, NoContextMatchesFaultFreeInstrumentedRun) {
  FastRealRestore restore;
  for (const bool fast : {true, false}) {
    for (const bool inverse : {false, true}) {
      const FftPlan plan(kDiffSize);
      auto bare = random_signal(kDiffSize, 5);
      auto counted = bare;
      plan.transform(std::span<RComplex>(bare), inverse);
      fsefi::set_fast_real_enabled(fast);
      fsefi::FaultContext ctx;
      ctx.reset();
      {
        fsefi::ContextGuard guard(&ctx);
        plan.transform(std::span<RComplex>(counted), inverse);
      }
      EXPECT_EQ(output_bits(bare), output_bits(counted))
          << (fast ? "fast" : "reference") << (inverse ? " inverse" : "");
      EXPECT_FALSE(ctx.contaminated());
    }
  }
}

}  // namespace
}  // namespace resilience::apps
