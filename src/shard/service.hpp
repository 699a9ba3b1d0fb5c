// Long-running campaign service (DESIGN.md §13).
//
// `resilience_cli serve <socket>` turns the binary into a daemon that
// accepts campaign requests over an AF_UNIX stream socket (the shard
// protocol's length-prefixed framing with JSON payloads — this is the
// external request API, unlike the binary coordinator/worker frames),
// executes each — sharded when the request or environment asks for it —
// and streams the serialized CampaignResult back. Identical requests are
// served from an in-memory cache: campaigns are deterministic in (app,
// config), so the cached JSON is byte-for-byte what a re-run would
// produce.
//
// Request vocabulary (the "type" field):
//   ping                          -> {type: "pong"}
//   campaign {app, size_class, config, shards?} ->
//       {type: "result", cached, campaign: <campaign JSON>}
//   stats                         -> {type: "stats", requests, cache_hits}
//   shutdown                      -> {type: "ok"} and the server exits
// Failures answer {type: "error", message} and keep the server alive.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "util/json.hpp"

namespace resilience::shard {

/// The request dispatcher, separated from socket plumbing so tests can
/// drive it JSON-in/JSON-out.
class StudyService {
 public:
  /// Handle one request; never throws — failures become error replies.
  util::Json handle(const util::Json& request);

  /// True once a shutdown request was handled; run_server exits then.
  [[nodiscard]] bool shutdown_requested() const noexcept { return shutdown_; }

  [[nodiscard]] std::size_t requests() const noexcept { return requests_; }
  [[nodiscard]] std::size_t cache_hits() const noexcept { return cache_hits_; }

 private:
  util::Json run_campaign(const util::Json& request);

  /// canonical request dump -> serialized campaign reply payload.
  std::map<std::string, std::string> cache_;
  std::size_t requests_ = 0;
  std::size_t cache_hits_ = 0;
  bool shutdown_ = false;
};

/// Bind `socket_path` (unlinking any stale socket first), accept one
/// client at a time, and answer frames until a shutdown request arrives.
/// Returns the process exit code.
int run_server(const std::string& socket_path);

/// Client side: connect to `socket_path`, send one request frame, and
/// return the reply. Throws std::runtime_error on connection failure or a
/// protocol violation.
util::Json send_request(const std::string& socket_path,
                        const util::Json& request);

}  // namespace resilience::shard
