// Cooperative trial-control hooks: the boundary API (DESIGN.md §9).
//
// Each mini-app's outer iteration loop is bulk-synchronous: at the end of
// every iteration all ranks meet at a global sync point and the rank-local
// live state — the set of values that determines the remainder of the run
// — is a handful of named vectors and scalars. Apps expose that state to
// the harness as StateViews and call into an installed TrialControl at the
// loop boundary. The harness uses the hook two ways:
//
//   * golden capture — profile_app records per-boundary op counts, a state
//     digest, and (at a budgeted subset of boundaries) the full serialized
//     rank state;
//   * trial fast-forward / early exit — an injection run resumes the loop
//     at the last checkpoint before its injection op, and terminates early
//     once every rank's state has provably reconverged to the golden run.
//
// No control installed (the default, and always the case outside the
// harness) means the hooks are skipped entirely and apps behave exactly as
// before.
#pragma once

#include <cstddef>
#include <span>

#include "fsefi/real.hpp"

namespace resilience::simmpi {
class Comm;
}  // namespace resilience::simmpi

namespace resilience::apps {

/// A typed view over one piece of rank-local live state. Views are built
/// fresh at every hook call (buffers may move between iterations, e.g.
/// MG's red/black swap) and are only valid for the duration of the call.
struct StateView {
  enum class Kind : std::uint8_t {
    Reals,    ///< contiguous fsefi::Real elements (primary + shadow)
    Doubles,  ///< plain doubles outside the instrumented type (PENNANT's t)
  };

  Kind kind = Kind::Reals;
  void* data = nullptr;
  std::size_t count = 0;

  static StateView reals(std::span<fsefi::Real> s) noexcept {
    return {Kind::Reals, s.data(), s.size()};
  }
  static StateView real(fsefi::Real& r) noexcept {
    return {Kind::Reals, &r, 1};
  }
  static StateView doubles(std::span<double> s) noexcept {
    return {Kind::Doubles, s.data(), s.size()};
  }
  static StateView scalar(double& d) noexcept { return {Kind::Doubles, &d, 1}; }

  [[nodiscard]] std::span<fsefi::Real> as_reals() const noexcept {
    return {static_cast<fsefi::Real*>(data), count};
  }
  [[nodiscard]] std::span<double> as_doubles() const noexcept {
    return {static_cast<double*>(data), count};
  }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return count * (kind == Kind::Reals ? sizeof(fsefi::Real) : sizeof(double));
  }
};

/// Harness-side trial controller. Implementations live in the harness
/// (golden capture, trial fast-forward); apps only ever see the interface.
class TrialControl {
 public:
  virtual ~TrialControl() = default;

  /// Called once per rank before the first outer iteration, and before
  /// any setup that executes instrumented ops (only uninstrumented
  /// construction, such as sizing the views, may precede it). The views
  /// describe the same live state later passed to boundary(). Returns the
  /// iteration index to start the loop at: 0 for a normal run, which then
  /// runs its setup; > 0 after the controller restored the views (and
  /// this rank's dynamic op counters) to the fault-free state at that
  /// boundary, in which case the app skips that setup.
  virtual int begin(std::span<const StateView> views) = 0;

  /// Called at the end of outer iteration `iter` — a global sync point on
  /// `comm`; every rank calls it with the same `iter` or none does.
  /// Returns false when the run may terminate early (every rank's live
  /// state provably matches the fault-free run, so the tail is redundant);
  /// the app must then return immediately — with any dummy result — without
  /// further communication. The harness synthesizes the real outputs.
  [[nodiscard]] virtual bool boundary(simmpi::Comm& comm, int iter,
                                      std::span<const StateView> views) = 0;
};

namespace detail {
inline thread_local TrialControl* tl_trial_control = nullptr;
}  // namespace detail

/// The controller installed on the calling rank, or nullptr when
/// the run is not under trial control (the boundary hooks are skipped).
inline TrialControl* current_trial_control() noexcept {
  return detail::tl_trial_control;
}

/// Install `ctl` on the calling thread; pass nullptr to uninstall.
inline void install_trial_control(TrialControl* ctl) noexcept {
  detail::tl_trial_control = ctl;
}

}  // namespace resilience::apps
