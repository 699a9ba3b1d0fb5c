// Customization point connecting the transport layer to higher layers.
//
// simmpi moves trivially-copyable values between ranks without knowing
// what they are. The fault-injection layer (fsefi) specializes
// TransportTraits for its instrumented Real type so that the runtime can
// report "tainted data landed in this rank's memory" — the contamination
// event the paper's P-FSEFI tool observes when profiling error
// propagation across MPI processes.
#pragma once

#include <span>

namespace resilience::simmpi {

template <typename T>
struct TransportTraits {
  /// Called on the receiving rank's thread after `values` have been
  /// delivered into receiver-owned memory (the application buffer of a
  /// recv/bcast, or a library-internal scratch accumulator inside a
  /// collective). The span is mutable so the fault injector can corrupt a
  /// payload exactly as it lands — never the sender's memory. Default:
  /// nothing to observe.
  static void on_receive(std::span<T> values) noexcept { (void)values; }

  /// RAII scope instantiated around arithmetic the runtime performs
  /// internally (reduction combines). The fault injector
  /// specializes this to suspend instrumentation there: combine operations
  /// are MPI-library code, not application computation, so they are not
  /// injection targets and are not counted — though corruption still
  /// propagates through them. Default: no-op.
  struct LibraryGuard {};
};

}  // namespace resilience::simmpi
