// Per-rank mailbox with MPI-style exact (source, tag) matching.
//
// Sends are buffered (they enqueue and return, like MPI_Send on small
// messages); receives block until a matching envelope arrives or the job
// aborts or deadlocks. Matching is FIFO per (source, tag) pair, which is
// exactly MPI's non-overtaking guarantee.
//
// Every receive names an exact (source, tag) pair; there are no
// wildcards. Envelopes are stored in per-(source, tag) sub-queues keyed
// by the wire pair, so a receive is one hash lookup, and which envelope
// it takes never depends on the order in which senders ran.
//
// A receive without a match parks its fiber: it records its (source, tag)
// pair in the mailbox's waiter list, and push unparks exactly the waiters
// awaiting its envelope's pair (an abort unparks every fiber). There is
// no timeout: the scheduler detects deadlock deterministically (zero
// runnable fibers) and wakes parked receivers, which observe deadlocked()
// and throw. Outside a fiber — the inline 1-rank path — nobody else can
// ever send, so an unmatched receive throws DeadlockError at once.
//
// A mailbox belongs to one job, and a job runs on one thread, so the
// mailbox is unsynchronized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "simmpi/errors.hpp"
#include "simmpi/pool.hpp"
#include "simmpi/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::simmpi {

/// A message in flight: raw bytes plus the matching metadata.
struct Envelope {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> bytes;
};

/// Shared abort flag for one job.
class AbortToken {
 public:
  void trigger() noexcept { aborted_ = true; }
  [[nodiscard]] bool triggered() const noexcept { return aborted_; }

 private:
  bool aborted_ = false;
};

class Mailbox {
 public:
  /// `scheduler` is the owning job's fiber scheduler, or null on the
  /// inline 1-rank path (an unmatched receive then fails at once).
  explicit Mailbox(AbortToken* abort, FiberScheduler* scheduler = nullptr)
      : abort_(abort), sched_(scheduler) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueue an envelope; never blocks. Only parked receivers awaiting
  /// the envelope's (source, tag) pair are woken — waking the
  /// rest would be a thundering herd of resume/re-park cycles (each a
  /// full TLS swap and context switch) for receives that cannot match.
  void push(Envelope env) {
    const int source = env.source;
    const int tag = env.tag;
    queues_[key_of(source, tag)].push_back(std::move(env));
    ++pending_;
    if (sched_ != nullptr) {
      for (const RecvWaiter& waiter : recv_waiters_) {
        if (waiter.source == source && waiter.tag == tag) {
          sched_->unpark(waiter.fiber);
        }
      }
    }
  }

  /// Dequeue the first envelope matching (source, tag), parking the
  /// calling fiber as needed. Throws AbortError if the job aborts while
  /// waiting and DeadlockError if no rank can ever send the match.
  Envelope pop_matching(int source, int tag) {
    bool counted_wait = false;
    detail::Fiber* const self = FiberScheduler::current_fiber();
    for (;;) {
      if (abort_->triggered()) throw AbortError();
      if (SubQueue* queue = find_match(source, tag); queue != nullptr) {
        return take_front(*queue);
      }
      if (sched_ == nullptr || self == nullptr) {
        throw DeadlockError("receive blocked outside a fiber: deadlock");
      }
      if (sched_->deadlocked()) {
        throw DeadlockError("receive blocked with no runnable fiber: deadlock");
      }
      if (!counted_wait) {
        // Diagnostic counter: this receive is about to block — its match
        // has not arrived yet. Counted once per call.
        telemetry::count(telemetry::Counter::SimmpiMailboxWaits);
        counted_wait = true;
      }
      recv_waiters_.push_back(RecvWaiter{self, source, tag});
      sched_->park();
      remove_recv_waiter(self);
    }
  }

  /// Number of queued envelopes (any source/tag).
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  // ---- payload buffer pool --------------------------------------------------

  /// A payload buffer of `bytes` size for a message addressed to this
  /// mailbox, recycled from previously consumed envelopes when possible.
  [[nodiscard]] std::vector<std::byte> acquire_buffer(std::size_t bytes) {
    return pool_.get(bytes);
  }

  /// Return a consumed envelope's payload capacity to this mailbox's pool.
  void recycle(Envelope&& env) { pool_.put(std::move(env.bytes)); }

  [[nodiscard]] BufferPool::Stats pool_stats() const noexcept {
    return pool_.stats();
  }

 private:
  using SubQueue = std::deque<Envelope>;

  Envelope take_front(SubQueue& queue) {
    Envelope env = std::move(queue.front());
    queue.pop_front();
    --pending_;
    if (queue.empty()) {
      // One-shot keys (every collective op salts a fresh tag) would
      // otherwise grow the index without bound.
      queues_.erase(key_of(env.source, env.tag));
    }
    return env;
  }

  /// A parked receiving fiber plus the (source, tag) pair it awaits;
  /// push() wakes only the receivers awaiting the envelope's pair.
  struct RecvWaiter {
    detail::Fiber* fiber = nullptr;
    int source = 0;
    int tag = 0;
  };

  void remove_recv_waiter(detail::Fiber* fiber) {
    for (auto it = recv_waiters_.begin(); it != recv_waiters_.end(); ++it) {
      if (it->fiber == fiber) {
        recv_waiters_.erase(it);
        return;
      }
    }
  }

  /// Wire sources are world ranks (>= 0) and wire tags are non-negative
  /// 31-bit values, so the pair packs into one index key.
  static std::uint64_t key_of(int source, int tag) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }
  /// The sub-queue of (source, tag), or nullptr when none is queued.
  SubQueue* find_match(int source, int tag) {
    const auto it = queues_.find(key_of(source, tag));
    return it == queues_.end() ? nullptr : &it->second;
  }

  AbortToken* abort_;
  FiberScheduler* sched_;  ///< the job's scheduler (multi-rank jobs)
  std::vector<RecvWaiter> recv_waiters_;  ///< parked receivers
  /// (source, tag) -> FIFO of envelopes; empty sub-queues are erased.
  std::unordered_map<std::uint64_t, SubQueue> queues_;
  std::size_t pending_ = 0;
  BufferPool pool_;
};

}  // namespace resilience::simmpi
