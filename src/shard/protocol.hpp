// Shard wire protocol (DESIGN.md §13, binary frames §15).
//
// Coordinator and workers exchange length-prefixed frames over a
// Unix-domain socketpair: a 4-byte little-endian payload length followed
// by the payload. Two payload encodings exist, selected by the
// RESILIENCE_WIRE knob: "binary" (default) packs messages with the binio
// writer, "json" is the UTF-8 JSON fallback. The first frame in each
// direction is a fixed-layout handshake (magic, protocol version, wire
// format) that both sides validate, so a coordinator and worker that
// disagree — mixed binaries, or RESILIENCE_WIRE drift between spawn and
// exec — reject each other with a clear error instead of misparsing.
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
#include "util/json.hpp"

namespace resilience::shard {

/// Payload encoding of the shard frames.
enum class WireFormat : std::uint8_t { Json = 0, Binary = 1 };

[[nodiscard]] const char* wire_format_name(WireFormat format) noexcept;

/// Resolve RESILIENCE_WIRE (binary unless the host lacks binio support).
[[nodiscard]] WireFormat wire_format_from_runtime();

/// Bumped on any incompatible change to the handshake or either payload
/// encoding; peers with different versions refuse to talk.
/// v3: the deployment config carries the full FaultScenario descriptor
/// (domain/pattern/arrival/kinds/regions/mtbf) instead of the legacy
/// kinds/pattern/regions triple.
/// v4: the deployment config no longer carries a deadlock timeout
/// (simmpi detects deadlock deterministically).
inline constexpr std::uint32_t kShardProtocolVersion = 4;

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

/// JSON-frame convenience used by the study service (whose request API
/// stays JSON regardless of RESILIENCE_WIRE).
void write_frame(int fd, const util::Json& message);
[[nodiscard]] std::optional<util::Json> read_frame(int fd);

// ---- handshake -------------------------------------------------------------

struct Handshake {
  std::uint32_t version = kShardProtocolVersion;
  WireFormat format = WireFormat::Binary;
};

[[nodiscard]] std::vector<std::byte> encode_handshake(WireFormat format);
/// Parse a payload as a handshake; nullopt when it is not one (wrong
/// magic or size — e.g. an error frame from a bailing worker).
[[nodiscard]] std::optional<Handshake> parse_handshake(
    std::span<const std::byte> payload);

/// Send this side's handshake (always the first frame written).
void write_handshake(int fd, WireFormat format);

/// Read the peer's first frame and require a handshake matching
/// `expected` in version and format; throws std::runtime_error naming
/// the mismatch (including a peer that is not speaking the protocol at
/// all, or a clean EOF).
[[nodiscard]] Handshake read_handshake(int fd, WireFormat expected);

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
/// the serialization bench legs. decode_message throws std::runtime_error
/// / util::BinError / util::JsonError on malformed payloads.
[[nodiscard]] std::vector<std::byte> encode_message(const Message& message,
                                                    WireFormat format);
[[nodiscard]] Message decode_message(std::span<const std::byte> payload,
                                     WireFormat format);

void write_message(int fd, WireFormat format, const Message& message);
/// nullopt on clean EOF at a frame boundary.
[[nodiscard]] std::optional<Message> read_message(int fd, WireFormat format);

// ---- JSON codecs (wire fallback + study service) ---------------------------

/// Full-fidelity deployment config for the wire — unlike the campaign
/// file schema this carries every execution-relevant field (hang budget,
/// deadlock timeout, adaptive engine parameters), so a worker rebuilds
/// the exact TrialSpace the coordinator planned against.
util::Json deployment_to_json(const harness::DeploymentConfig& config);
harness::DeploymentConfig deployment_from_json(const util::Json& json);

util::Json refs_to_json(const std::vector<harness::TrialRef>& refs);
std::vector<harness::TrialRef> refs_from_json(const util::Json& json);

util::Json results_to_json(const std::vector<harness::TrialResult>& results);
std::vector<harness::TrialResult> results_from_json(const util::Json& json);

}  // namespace resilience::shard
