// Nonblocking communication requests.
//
// Sends in this runtime are always buffered, so only receives have a
// nonblocking form: an irecv defers its matching to wait(). This is a
// legal MPI progress model (completion may happen entirely inside the
// wait call) and is exactly what the mini-apps need to overlap their halo
// exchange posts.
#pragma once

#include <cassert>
#include <cstring>
#include <exception>
#include <optional>
#include <span>

#include "simmpi/errors.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/transport_traits.hpp"

namespace resilience::simmpi {

class Comm;

/// Handle for an outstanding nonblocking operation. Move-only; must be
/// completed with wait() (or via Comm::wait_all) before destruction —
/// destroying an incomplete receive request is a usage bug and terminates
/// in debug builds. The one exception is a request destroyed while an
/// exception unwinds its rank (an aborted job tearing down, or a wait
/// that threw before later requests were waited on): no one will ever
/// read that message, so dropping it is legal.
class Request {
 public:
  Request() = default;
  Request(Request&& other) noexcept { *this = std::move(other); }
  Request& operator=(Request&& other) noexcept {
    mailbox_ = other.mailbox_;
    source_ = other.source_;
    tag_ = other.tag_;
    bytes_ = other.bytes_;
    deliver_ = other.deliver_;
    pending_ = other.pending_;
    other.pending_ = false;
    return *this;
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  ~Request() {
    // An abandoned pending receive would silently drop a message, unless
    // the rank is unwinding and will never read it.
    assert((!pending_ || std::uncaught_exceptions() > 0) &&
           "Request destroyed before wait()");
  }

  /// Block until the receive completes (no-op for a completed or
  /// default-constructed request).
  void wait() {
    if (!pending_) return;
    Envelope env = mailbox_->pop_matching(source_, tag_);
    complete(env);
    mailbox_->recycle(std::move(env));
  }

  [[nodiscard]] bool pending() const noexcept { return pending_; }

 private:
  friend class Comm;

  /// Construct a pending receive (used by Comm::irecv).
  Request(Mailbox* mailbox, int source, int tag, std::span<std::byte> bytes,
          void (*deliver)(std::span<std::byte>))
      : mailbox_(mailbox),
        source_(source),
        tag_(tag),
        bytes_(bytes),
        deliver_(deliver),
        pending_(true) {}

  void complete(const Envelope& env) {
    if (env.bytes.size() != bytes_.size()) {
      pending_ = false;
      throw UsageError("irecv: message size does not match buffer");
    }
    if (!bytes_.empty()) {
      std::memcpy(bytes_.data(), env.bytes.data(), bytes_.size());
    }
    pending_ = false;
    if (deliver_ != nullptr) deliver_(bytes_);
  }

  Mailbox* mailbox_ = nullptr;
  int source_ = 0;
  int tag_ = 0;
  std::span<std::byte> bytes_{};
  void (*deliver_)(std::span<std::byte>) = nullptr;
  bool pending_ = false;
};

}  // namespace resilience::simmpi
