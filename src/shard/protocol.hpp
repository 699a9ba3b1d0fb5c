// Shard wire protocol (DESIGN.md §13, binary frames §15).
//
// Coordinator and workers exchange length-prefixed frames over a
// Unix-domain socketpair: a 4-byte little-endian payload length followed
// by the payload. Every payload is a binio message; the wire has exactly
// one encoding. The first frame in each direction is a fixed-layout
// handshake (magic + protocol version) that both sides validate, so a
// coordinator and worker from different binaries reject each other with
// a clear error instead of misparsing.
//
// Message vocabulary:
//   coordinator -> worker
//     InitMsg     {app, size_class, config, store, kill_after_units}
//     UnitMsg     {id, refs}
//     ShutdownMsg {}
//   worker -> coordinator
//     ReadyMsg    {metrics}            — after init + golden acquisition
//     ResultMsg   {id, outcomes, wall_seconds, metrics}
//     ErrorMsg    {message}            — before exiting on a failure
//
// Frames are capped at RESILIENCE_FRAME_CAP_MB (backstop against a
// corrupted length prefix); oversize errors name the frame kind, unit id,
// and byte count on the write side, and the configured cap on both.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "harness/campaign_engine.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::shard {

/// Bumped on any incompatible change to the handshake or the payload
/// encoding; peers with different versions refuse to talk.
/// v3: the deployment config carries the full FaultScenario descriptor
/// (domain/pattern/arrival/kinds/regions/mtbf) instead of the legacy
/// kinds/pattern/regions triple.
/// v4: the deployment config no longer carries a deadlock timeout
/// (simmpi detects deadlock deterministically).
/// v5: the handshake drops its wire-format byte (binary is the only
/// encoding).
inline constexpr std::uint32_t kShardProtocolVersion = 5;

// ---- raw frames ------------------------------------------------------------

/// Write one frame; throws std::runtime_error on a short write, a closed
/// peer (EPIPE arrives as an error, not a signal — callers ignore
/// SIGPIPE), or a payload over the frame cap (`context` names the frame
/// in the error message).
void write_frame_bytes(int fd, std::span<const std::byte> payload,
                       const std::string& context);

/// Read one frame's payload. Returns nullopt on clean EOF at a frame
/// boundary; throws std::runtime_error on a truncated frame (peer died
/// mid-write) or a length prefix over the frame cap.
[[nodiscard]] std::optional<std::vector<std::byte>> read_frame_bytes(int fd);

// ---- handshake -------------------------------------------------------------

[[nodiscard]] std::vector<std::byte> encode_handshake();
/// Parse a payload as a handshake and return the protocol version it
/// announces; nullopt when it is not one (wrong magic or size — e.g. an
/// error frame from a bailing worker).
[[nodiscard]] std::optional<std::uint32_t> parse_handshake(
    std::span<const std::byte> payload);

/// Send this side's handshake (always the first frame written).
void write_handshake(int fd);

/// Read the peer's first frame and require a handshake of this binary's
/// protocol version; throws std::runtime_error naming the mismatch
/// (including a peer that is not speaking the protocol at all, or a
/// clean EOF).
void read_handshake(int fd);

// ---- messages --------------------------------------------------------------

struct InitMsg {
  std::string app;
  std::string size_class;
  harness::DeploymentConfig config;
  std::string store;
  int kill_after_units = -1;
};

struct ReadyMsg {
  telemetry::MetricsSnapshot metrics;
};

struct UnitMsg {
  std::uint64_t id = 0;
  std::vector<harness::TrialRef> refs;
};

struct ResultMsg {
  std::uint64_t id = 0;
  std::vector<harness::TrialResult> outcomes;
  double wall_seconds = 0.0;
  telemetry::MetricsSnapshot metrics;
};

struct ErrorMsg {
  std::string message;
};

struct ShutdownMsg {};

using Message =
    std::variant<InitMsg, ReadyMsg, UnitMsg, ResultMsg, ErrorMsg, ShutdownMsg>;

/// Encode/decode one message payload (no framing) — also the substrate of
/// the serialization bench legs. decode_message accepts exactly what
/// encode_message produces: element counts are checked against the bytes
/// left before anything is sized by them, enum fields are range-checked,
/// and trailing bytes are rejected; anything else throws util::BinError.
[[nodiscard]] std::vector<std::byte> encode_message(const Message& message);
[[nodiscard]] Message decode_message(std::span<const std::byte> payload);

void write_message(int fd, const Message& message);
/// nullopt on clean EOF at a frame boundary.
[[nodiscard]] std::optional<Message> read_message(int fd);

// ---- perfbench compatibility shim ------------------------------------------
//
// perfbench/probes.cpp predates the single encoding and still spells the
// frame codec with a format argument. These forwarders keep it building
// unchanged; drop them with the next change that may edit perfbench/.

enum class WireFormat : std::uint8_t { Binary };

[[nodiscard]] inline WireFormat wire_format_from_runtime() noexcept {
  return WireFormat::Binary;
}

[[nodiscard]] inline std::vector<std::byte> encode_message(
    const Message& message, WireFormat /*format*/) {
  return encode_message(message);
}

[[nodiscard]] inline Message decode_message(
    std::span<const std::byte> payload, WireFormat /*format*/) {
  return decode_message(payload);
}

}  // namespace resilience::shard
