// fsefi::Real — an instrumented IEEE-754 double with shadow execution.
//
// This is the reproduction's stand-in for F-SEFI's QEMU-level instruction
// instrumentation: every arithmetic operation on Real
//   1. is counted as one dynamic FP instruction of its kind,
//   2. may have a bit of one operand's primary value flipped if the armed
//      InjectionPlan selected this dynamic operation, and
//   3. computes a shadow (fault-free) result alongside the primary one, so
//      corruption is tracked by actual value divergence. An error whose
//      contribution is numerically absorbed (rounded away in a long sum)
//      stops being corruption — the behaviour a memory-diffing injector
//      like F-SEFI observes, and the reason most CG injections contaminate
//      only one MPI process (paper Figure 1a).
//
// Control flow (comparisons, min/max selection) follows the corrupted
// primary values, as in the real faulty execution; after a control-flow
// divergence the shadow is a per-operation counterfactual rather than a
// replay of the exact fault-free run, which is the standard approximation.
//
// Real is trivially copyable so the simmpi transport can move arrays of it
// between ranks; the shadow travels inside the value and the transport
// reports divergent payloads as contamination on the receiving rank.
//
// Threads not running under a FaultContext (golden runs, unit tests) pay
// one predictable branch per operation and compute exactly like double.
#pragma once

#if !defined(__x86_64__)
#error "fsefi::PackedReal needs x86-64 SSE2 (the simmpi fiber switch is x86-64 only too)"
#endif

#include <emmintrin.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#include "fsefi/fault_context.hpp"

namespace resilience::fsefi {

class Real {
 public:
  constexpr Real() = default;
  // Implicit from double so numeric literals read naturally in app code.
  constexpr Real(double v) noexcept : v_(v), shadow_(v) {}  // NOLINT(google-explicit-constructor)

  /// The value the (possibly corrupted) execution actually computed.
  [[nodiscard]] constexpr double value() const noexcept { return v_; }
  /// The value the fault-free execution would have computed.
  [[nodiscard]] constexpr double shadow() const noexcept { return shadow_; }
  /// True when the primary value has diverged from the fault-free one.
  [[nodiscard]] bool tainted() const noexcept {
    return values_diverge(v_, shadow_);
  }

  /// Construct an explicitly corrupted value (tests and fault-model demos;
  /// campaigns corrupt through injection plans).
  static constexpr Real corrupted(double primary, double shadow) noexcept {
    Real r;
    r.v_ = primary;
    r.shadow_ = shadow;
    return r;
  }

  /// Collapse the shadow onto the primary value (checkers comparing final
  /// outputs, never application math).
  [[nodiscard]] constexpr Real untainted() const noexcept { return Real(v_); }

  // ---- arithmetic (instrumented) ------------------------------------------
  //
  // Every counted op is forced inline at its call site (DESIGN.md §8,
  // "Real arithmetic is always inlined"). Left to its heuristics, GCC
  // stops inlining in large app bodies and emits out-of-line binary()
  // clones that spill the {v_, shadow_} pair as two 8-byte stores and
  // reload it as one 16-byte load — a failed store-to-load forward on
  // every op. tools/check_real_inline.py fails the build if any object
  // still holds an out-of-line copy.

  [[gnu::always_inline]] friend Real operator+(Real a, Real b) {
    return binary(OpKind::Add, a, b);
  }
  [[gnu::always_inline]] friend Real operator-(Real a, Real b) {
    return binary(OpKind::Sub, a, b);
  }
  [[gnu::always_inline]] friend Real operator*(Real a, Real b) {
    return binary(OpKind::Mul, a, b);
  }
  [[gnu::always_inline]] friend Real operator/(Real a, Real b) {
    return binary(OpKind::Div, a, b);
  }

  Real& operator+=(Real b) { return *this = *this + b; }
  Real& operator-=(Real b) { return *this = *this - b; }
  Real& operator*=(Real b) { return *this = *this * b; }
  Real& operator/=(Real b) { return *this = *this / b; }

  /// Sign flip: not an FP add/mul instruction, so uncounted.
  friend constexpr Real operator-(Real a) noexcept {
    return corrupted(-a.v_, -a.shadow_);
  }
  friend constexpr Real operator+(Real a) noexcept { return a; }

  // ---- comparisons (follow the corrupted execution) -------------------------

  friend constexpr bool operator==(Real a, Real b) noexcept {
    return a.v_ == b.v_;
  }
  friend constexpr bool operator!=(Real a, Real b) noexcept {
    return a.v_ != b.v_;
  }
  friend constexpr bool operator<(Real a, Real b) noexcept {
    return a.v_ < b.v_;
  }
  friend constexpr bool operator>(Real a, Real b) noexcept {
    return a.v_ > b.v_;
  }
  friend constexpr bool operator<=(Real a, Real b) noexcept {
    return a.v_ <= b.v_;
  }
  friend constexpr bool operator>=(Real a, Real b) noexcept {
    return a.v_ >= b.v_;
  }

  // ---- unary instrumented math ---------------------------------------------

  [[gnu::always_inline]] friend Real sqrt(Real a) {
    if (FaultContext* ctx = current_context()) {
      double dummy = 0.0;
      ctx->on_op(OpKind::Sqrt, a.v_, dummy);
      const Real r = corrupted(std::sqrt(a.v_), std::sqrt(a.shadow_));
      ctx->observe_result(r.v_, r.shadow_);
      return r;
    }
    return corrupted(std::sqrt(a.v_), std::sqrt(a.shadow_));
  }

  /// Magnitude: sign manipulation only, uncounted.
  friend constexpr Real abs(Real a) noexcept {
    return corrupted(a.v_ < 0 ? -a.v_ : a.v_,
                     a.shadow_ < 0 ? -a.shadow_ : a.shadow_);
  }

  /// Selection by the corrupted comparison; the chosen value keeps its own
  /// shadow (control-flow divergence is not tracked).
  friend constexpr Real min(Real a, Real b) noexcept { return b < a ? b : a; }
  friend constexpr Real max(Real a, Real b) noexcept { return a < b ? b : a; }

  friend bool isfinite(Real a) noexcept { return std::isfinite(a.v_); }
  friend bool isnan(Real a) noexcept { return std::isnan(a.v_); }

 private:
  [[gnu::always_inline]] static Real binary(OpKind kind, Real a, Real b) {
    if (FaultContext* ctx = current_context()) {
      ctx->on_op(kind, a.v_, b.v_);
      const Real r =
          corrupted(eval(kind, a.v_, b.v_), eval(kind, a.shadow_, b.shadow_));
      ctx->observe_result(r.v_, r.shadow_);
      return r;
    }
    return corrupted(eval(kind, a.v_, b.v_), eval(kind, a.shadow_, b.shadow_));
  }

  static constexpr double eval(OpKind kind, double a, double b) noexcept {
    switch (kind) {
      case OpKind::Add:
        return a + b;
      case OpKind::Sub:
        return a - b;
      case OpKind::Mul:
        return a * b;
      case OpKind::Div:
        return a / b;
      case OpKind::Sqrt:
        break;  // unary; handled in sqrt(), never dispatched here
    }
    // A kind this switch does not cover (Sqrt, or a future addition whose
    // author forgot this function) must fail loudly, not evaluate to 0.0
    // and silently corrupt every downstream result. Aborting in a
    // constant-evaluated context is ill-formed, so a compile-time misuse
    // fails to build instead.
    std::abort();
  }

  double v_ = 0.0;
  double shadow_ = 0.0;
};

static_assert(std::is_trivially_copyable_v<Real>,
              "Real must be transportable by simmpi");
static_assert(std::is_standard_layout_v<Real> && sizeof(Real) == 16,
              "PackedReal loads a Real as the two doubles at its address");

/// A Real's primary and shadow packed into one SSE2 vector (lane 0 the
/// primary, lane 1 the shadow), with Real's semantics minus the counting.
/// Quiet windows (DESIGN.md §8 item 4), where the FaultContext guarantees
/// no event, compute on it: each op is one addpd/subpd/mulpd/divpd/sqrtpd,
/// and IEEE rounding makes each lane bit-identical to the scalar op Real
/// performs on it. Comparisons, min/max, isfinite and isnan read the
/// primary lane, as Real's do, so control flow follows the primary. abs
/// is Real's sign select (-0.0 and negative NaNs keep their sign), not
/// fabs.
class PackedReal {
 public:
  PackedReal() = default;
  // Implicit from double, like Real, so literals broadcast to both lanes.
  PackedReal(double v) noexcept : m_(_mm_set1_pd(v)) {}  // NOLINT(google-explicit-constructor)
  // Takes the Real by reference and loads its two doubles as one vector:
  // by value, GCC rebuilds a register-held operand (axpy's alpha) with two
  // 8-byte stores and a 16-byte reload in every cell, a failed
  // store-to-load forward each time.
  explicit PackedReal(const Real& r) noexcept
      : m_(_mm_loadu_pd(reinterpret_cast<const double*>(&r))) {}
  explicit operator Real() const noexcept { return std::bit_cast<Real>(m_); }

  [[nodiscard]] double value() const noexcept { return _mm_cvtsd_f64(m_); }
  [[nodiscard]] double shadow() const noexcept {
    return _mm_cvtsd_f64(_mm_unpackhi_pd(m_, m_));
  }

  [[gnu::always_inline]] friend PackedReal operator+(PackedReal a,
                                                     PackedReal b) noexcept {
    return PackedReal(_mm_add_pd(a.m_, b.m_));
  }
  [[gnu::always_inline]] friend PackedReal operator-(PackedReal a,
                                                     PackedReal b) noexcept {
    return PackedReal(_mm_sub_pd(a.m_, b.m_));
  }
  [[gnu::always_inline]] friend PackedReal operator*(PackedReal a,
                                                     PackedReal b) noexcept {
    return PackedReal(_mm_mul_pd(a.m_, b.m_));
  }
  [[gnu::always_inline]] friend PackedReal operator/(PackedReal a,
                                                     PackedReal b) noexcept {
    return PackedReal(_mm_div_pd(a.m_, b.m_));
  }
  PackedReal& operator+=(PackedReal b) noexcept { return *this = *this + b; }
  PackedReal& operator-=(PackedReal b) noexcept { return *this = *this - b; }
  PackedReal& operator*=(PackedReal b) noexcept { return *this = *this * b; }
  PackedReal& operator/=(PackedReal b) noexcept { return *this = *this / b; }

  friend PackedReal operator-(PackedReal a) noexcept {
    return PackedReal(_mm_xor_pd(a.m_, _mm_set1_pd(-0.0)));
  }
  friend PackedReal operator+(PackedReal a) noexcept { return a; }

  friend bool operator==(PackedReal a, PackedReal b) noexcept {
    return a.value() == b.value();
  }
  friend bool operator!=(PackedReal a, PackedReal b) noexcept {
    return a.value() != b.value();
  }
  friend bool operator<(PackedReal a, PackedReal b) noexcept {
    return a.value() < b.value();
  }
  friend bool operator>(PackedReal a, PackedReal b) noexcept {
    return a.value() > b.value();
  }
  friend bool operator<=(PackedReal a, PackedReal b) noexcept {
    return a.value() <= b.value();
  }
  friend bool operator>=(PackedReal a, PackedReal b) noexcept {
    return a.value() >= b.value();
  }

  [[gnu::always_inline]] friend PackedReal sqrt(PackedReal a) noexcept {
    return PackedReal(_mm_sqrt_pd(a.m_));
  }
  /// Per lane `x < 0 ? -x : x`, as Real::abs: flips the sign bit exactly
  /// where the ordered compare holds, so -0.0 and NaNs pass unchanged.
  friend PackedReal abs(PackedReal a) noexcept {
    const __m128d negative = _mm_cmplt_pd(a.m_, _mm_setzero_pd());
    return PackedReal(
        _mm_xor_pd(a.m_, _mm_and_pd(negative, _mm_set1_pd(-0.0))));
  }
  friend PackedReal min(PackedReal a, PackedReal b) noexcept {
    return b < a ? b : a;
  }
  friend PackedReal max(PackedReal a, PackedReal b) noexcept {
    return a < b ? b : a;
  }
  friend bool isfinite(PackedReal a) noexcept {
    return std::isfinite(a.value());
  }
  friend bool isnan(PackedReal a) noexcept { return std::isnan(a.value()); }

 private:
  friend class DivergenceMask;
  explicit PackedReal(__m128d m) noexcept : m_(m) {}

  __m128d m_;
};

/// Accumulates whether any of a run of PackedReal values diverges: its
/// primary and shadow bit patterns differ (as values_diverge). Each add is
/// register-only (lane shuffles, an XOR and an OR), so a quiet-window cell
/// checks the inputs it has loaded without reading them again. Adding two
/// values at once takes one more shuffle than adding one.
class DivergenceMask {
 public:
  void add(PackedReal v) noexcept {
    bits_ = _mm_or_pd(bits_,
                      _mm_xor_pd(v.m_, _mm_shuffle_pd(v.m_, v.m_, 1)));
  }
  void add(PackedReal u, PackedReal v) noexcept {
    bits_ = _mm_or_pd(bits_, _mm_xor_pd(_mm_unpacklo_pd(u.m_, v.m_),
                                        _mm_unpackhi_pd(u.m_, v.m_)));
  }
  [[nodiscard]] bool any() const noexcept {
    const __m128i bits = _mm_castpd_si128(bits_);
    return (_mm_cvtsi128_si64(bits) |
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(bits, bits))) != 0;
  }

 private:
  __m128d bits_ = _mm_setzero_pd();
};

static_assert(sizeof(PackedReal) == sizeof(Real),
              "PackedReal packs exactly one Real's primary and shadow");

}  // namespace resilience::fsefi
