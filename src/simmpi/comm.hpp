// The per-rank communicator handle: typed point-to-point messaging and
// deterministic collectives over the mailbox transport.
//
// The surface is what the mini-apps call, and no more: send/recv/
// sendrecv/irecv/wait_all, allreduce, allgather, alltoall and split, plus
// the mailbox bcast/reduce/gather that fused allreduce and allgather are
// checked against. Semantics follow MPI where it matters for resilience
// modeling:
//  - sends are buffered and non-blocking (MPI_Send on eager-size messages);
//  - receives name an exact (source, tag) pair and match it in
//    non-overtaking order, so which message a receive takes never depends
//    on the schedule (there are no wildcard receives);
//  - collectives are SPMD: every rank of a communicator must call the same
//    sequence of collectives (the paper's application model, Section 2,
//    assumes all MPI processes run the same computation);
//  - reductions combine contributions in a fixed tree order so that
//    floating-point results — and corruption propagation — are
//    deterministic run-to-run, which the fault injector's profiling
//    pre-pass relies on;
//  - split() carves sub-communicators out of the world communicator; each
//    gets its own tag space (an 8-bit salt folded into every wire tag), so
//    traffic in different communicators can never cross-match.
//
// Wire tag layout (31 usable bits of a non-negative int):
//   [bit 30]     internal (collective) flag
//   [bits 22-29] communicator salt (0 = world)
//   [bits 0-21]  user tag, or collective sequence * 8 + operation slot
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "simmpi/collective.hpp"
#include "simmpi/errors.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/request.hpp"
#include "simmpi/scheduler.hpp"
#include "simmpi/transport_traits.hpp"

namespace resilience::simmpi {

namespace detail {

/// Shared state of one running job; owned by Runtime::run.
struct JobState {
  /// `sched` drives the ranks of a multi-rank job (null for one rank) and
  /// must outlive the job state.
  JobState(int nranks, FiberScheduler* sched) : scheduler(sched) {
    mailboxes.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      mailboxes.push_back(std::make_unique<Mailbox>(&abort, scheduler));
    }
  }

  /// Every parked rank — in a receive or at a fused collective — wakes
  /// and observes the abort token.
  void trigger_abort() {
    abort.trigger();
    if (scheduler != nullptr) scheduler->wake_all_parked();
  }

  /// Aggregate envelope-pool statistics across every rank's mailbox.
  [[nodiscard]] BufferPool::Stats pool_stats() const {
    BufferPool::Stats total;
    for (const auto& box : mailboxes) {
      const BufferPool::Stats s = box->pool_stats();
      total.allocs += s.allocs;
      total.reuses += s.reuses;
    }
    return total;
  }

  AbortToken abort;
  /// Fiber scheduler driving this job's ranks; null on the inline 1-rank
  /// path.
  FiberScheduler* scheduler;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  /// Fused-collective meeting points, keyed by communicator salt.
  FusedHub fused;
  /// Transport statistics for the whole job (all communicators).
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
};

/// Whether collectives fuse at the group meeting point (the default) or
/// decompose into mailbox messages. A programmatic test/bench toggle
/// only — there is no environment knob, because the fused path is
/// semantically identical and strictly faster; the mailbox decomposition
/// is the in-tree reference the fused path is checked against.
[[nodiscard]] bool fused_collectives_enabled() noexcept;
void set_fused_collectives_enabled(bool enabled) noexcept;

inline constexpr int kUserTagBits = 22;
inline constexpr int kSaltBits = 8;
inline constexpr int kInternalFlag = 1 << 30;
inline constexpr int kCollectiveSlots = 8;

constexpr int wire_user_tag(int salt, int tag) noexcept {
  return (salt << kUserTagBits) | tag;
}
constexpr int wire_internal_tag(int salt, int seq, int slot) noexcept {
  return kInternalFlag | (salt << kUserTagBits) |
         (seq * kCollectiveSlots + slot);
}

}  // namespace detail

/// Largest user-visible message tag.
inline constexpr int kMaxUserTag = (1 << detail::kUserTagBits) - 1;

template <typename T>
concept Transportable = std::is_trivially_copyable_v<T>;

/// Binary reduction operators for reduce/allreduce: the two the apps use.
/// Any callable T(const T&, const T&) works.
struct Sum {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a + b;
  }
};
struct Min {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return b < a ? b : a;
  }
};

class Comm {
 public:
  /// World communicator handle (constructed by Runtime).
  Comm(detail::JobState* job, int rank, int size)
      : job_(job), rank_(rank), size_(size) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return size_; }
  /// This rank's identity in the world communicator.
  [[nodiscard]] int world_rank() const noexcept { return translate(rank_); }

  // ---- point to point -----------------------------------------------------

  /// Buffered send: copies `values` and returns immediately.
  template <Transportable T>
  void send(int dest, int tag, std::span<const T> values) {
    check_peer(dest, "send");
    post(dest, salted_tag(tag), values);
  }

  template <Transportable T>
  void send_value(int dest, int tag, const T& value) {
    send(dest, tag, std::span<const T>(&value, 1));
  }

  /// Blocking receive from exactly (source, tag) into a caller-sized
  /// buffer. The matched message must contain exactly `out.size()`
  /// elements of T.
  template <Transportable T>
  void recv(int source, int tag, std::span<T> out) {
    Envelope env =
        my_mailbox().pop_matching(wire_source(source, "recv"), salted_tag(tag));
    if (env.bytes.size() != out.size_bytes()) {
      throw UsageError("recv: message size " + std::to_string(env.bytes.size()) +
                       " bytes does not match buffer " +
                       std::to_string(out.size_bytes()) + " bytes");
    }
    if (!out.empty()) std::memcpy(out.data(), env.bytes.data(), out.size_bytes());
    my_mailbox().recycle(std::move(env));
    TransportTraits<T>::on_receive(std::span<T>(out.data(), out.size()));
  }

  template <Transportable T>
  T recv_value(int source, int tag) {
    T value{};
    recv(source, tag, std::span<T>(&value, 1));
    return value;
  }

  /// Combined send+receive (deadlock-free because sends are buffered).
  template <Transportable T>
  void sendrecv(int dest, int send_tag, std::span<const T> send_buf,
                int source, int recv_tag, std::span<T> recv_buf) {
    send(dest, send_tag, send_buf);
    recv(source, recv_tag, recv_buf);
  }

  // ---- nonblocking ----------------------------------------------------------

  /// Nonblocking receive: matching is deferred to wait() on the returned
  /// request. The buffer must stay alive until completion.
  template <Transportable T>
  Request irecv(int source, int tag, std::span<T> out) {
    const int wire_src = wire_source(source, "irecv");
    return Request(&my_mailbox(), wire_src, salted_tag(tag),
                   std::as_writable_bytes(out),
                   [](std::span<std::byte> bytes) {
                     TransportTraits<T>::on_receive(std::span<T>(
                         reinterpret_cast<T*>(bytes.data()),
                         bytes.size() / sizeof(T)));
                   });
  }

  /// Complete every request in the span (MPI_Waitall).
  static void wait_all(std::span<Request> requests) {
    for (auto& request : requests) request.wait();
  }

  // ---- collectives ----------------------------------------------------------

  /// Broadcast `buf` from `root` to all ranks over a binary tree, one
  /// mailbox message per tree edge. This is the reference decomposition
  /// of the bcast phase that fused allreduce and allgather run in their
  /// combine (combine_bcast_subtree).
  template <Transportable T>
  void bcast(std::span<T> buf, int root) {
    check_peer(root, "bcast");
    const int tag = next_collective_tag(0);
    // Renumber so the root is virtual rank 0, then walk the binomial tree.
    const int vrank = (rank_ - root + size_) % size_;
    // Receive from parent (unless root).
    if (vrank != 0) {
      const int parent = ((vrank - 1) / 2 + root) % size_;
      recv_internal(parent, tag, buf);
    }
    // Forward to children.
    for (int child_v : {2 * vrank + 1, 2 * vrank + 2}) {
      if (child_v < size_) {
        send_internal((child_v + root) % size_, tag, std::span<const T>(buf));
      }
    }
  }

  /// Element-wise reduction of `in` into `out` on `root`, one mailbox
  /// message per tree edge. Contributions are combined bottom-up over a
  /// fixed binary tree, so the combine order is identical for every run
  /// at a given job size. This is the reference decomposition of fused
  /// allreduce's reduce phase (combine_reduce_subtree).
  template <Transportable T, typename Op = Sum>
  void reduce(std::span<const T> in, std::span<T> out, int root, Op op = {}) {
    check_peer(root, "reduce");
    if (in.size() != out.size() && rank_ == root) {
      throw UsageError("reduce: in/out size mismatch on root");
    }
    const int tag = next_collective_tag(1);
    const int vrank = (rank_ - root + size_) % size_;
    std::vector<T> acc(in.begin(), in.end());
    // Gather children's partial results (left child first: fixed order).
    for (int child_v : {2 * vrank + 1, 2 * vrank + 2}) {
      if (child_v < size_) {
        std::vector<T> child(in.size());
        recv_internal((child_v + root) % size_, tag, std::span<T>(child));
        // Combine as library code: not application computation.
        [[maybe_unused]] typename TransportTraits<T>::LibraryGuard guard{};
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i] = op(acc[i], child[i]);
        }
      }
    }
    if (vrank == 0) {
      std::copy(acc.begin(), acc.end(), out.begin());
    } else {
      const int parent = ((vrank - 1) / 2 + root) % size_;
      send_internal(parent, tag, std::span<const T>(acc));
    }
  }

  /// Reduce-to-all: logically a tree reduce onto rank 0 followed by a
  /// broadcast, so every rank observes the same bit pattern (and
  /// corruption) in the result. Fused, both trees run in one combine at a
  /// single arrival; with fusion off they are the mailbox reduce and bcast.
  template <Transportable T, typename Op = Sum>
  void allreduce(std::span<const T> in, std::span<T> out, Op op = {}) {
    if (in.size() != out.size()) {
      throw UsageError("allreduce: in/out size mismatch");
    }
    if (fused_active()) {
      allreduce_fused(in, out, op);
      return;
    }
    reduce(in, out, /*root=*/0, op);
    bcast(out, /*root=*/0);
  }

  template <Transportable T, typename Op = Sum>
  T allreduce_value(const T& value, Op op = {}) {
    T out{};
    allreduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op);
    return out;
  }

  /// Gather equal-size blocks onto `root` as mailbox messages; out must
  /// hold size()*in.size() elements on the root and may be empty
  /// elsewhere. This is the reference decomposition of fused allgather's
  /// gather phase (combine_gather_to_root).
  template <Transportable T>
  void gather(std::span<const T> in, std::span<T> out, int root) {
    check_peer(root, "gather");
    const int tag = next_collective_tag(2);
    if (rank_ == root) {
      if (out.size() != in.size() * static_cast<std::size_t>(size_)) {
        throw UsageError("gather: out must be size()*block elements on root");
      }
      for (int r = 0; r < size_; ++r) {
        auto slot = out.subspan(static_cast<std::size_t>(r) * in.size(),
                                in.size());
        if (r == rank_) {
          // An element loop: inlined into allgather at -O3, GCC 12 gives a
          // std::copy or memcpy here a bogus bound of 2^64 - 16 bytes and
          // warns (-Wstringop-overflow), which -Werror turns into an error.
          if (in.data() != slot.data()) {
            for (std::size_t i = 0; i < slot.size(); ++i) slot[i] = in[i];
          }
        } else {
          recv_internal(r, tag, slot);
        }
      }
    } else {
      send_internal(root, tag, in);
    }
  }

  /// Gather-to-all: logically a gather onto rank 0 followed by a
  /// broadcast. Fused, the gather and the bcast tree run in one combine at
  /// a single arrival. `in` may be this rank's own block of `out` but must
  /// not overlap any other block.
  template <Transportable T>
  void allgather(std::span<const T> in, std::span<T> out) {
    if (out.size() != in.size() * static_cast<std::size_t>(size_)) {
      throw UsageError("allgather: out must be size()*block elements");
    }
    check_own_block_only(
        in, in, out,
        out.subspan(static_cast<std::size_t>(rank_) * in.size(), in.size()),
        "allgather");
    if (fused_active()) {
      allgather_fused(in, out);
      return;
    }
    gather(in, out, /*root=*/0);
    bcast(out, /*root=*/0);
  }

  /// Personalized all-to-all exchange of equal-size blocks: block j of `in`
  /// goes to rank j; block i of `out` comes from rank i. This is the
  /// communication pattern of FT's distributed transpose. Logically p−1
  /// sends and p−1 receives per rank; fused, the combiner copies every
  /// block straight from its sender's `in` at a single arrival. `in` and
  /// `out` may share only this rank's own block.
  template <Transportable T>
  void alltoall(std::span<const T> in, std::span<T> out) {
    const auto p = static_cast<std::size_t>(size_);
    if (in.size() != out.size() || in.size() % p != 0) {
      throw UsageError("alltoall: buffers must be size()*block elements");
    }
    const std::size_t block = in.size() / p;
    const std::size_t own = static_cast<std::size_t>(rank_) * block;
    check_own_block_only(in, in.subspan(own, block), out,
                         out.subspan(own, block), "alltoall");
    if (fused_active()) {
      alltoall_fused(in, out);
      return;
    }
    const int tag = next_collective_tag(4);
    for (int r = 0; r < size_; ++r) {
      if (r == rank_) continue;
      send_internal(r, tag,
                    in.subspan(static_cast<std::size_t>(r) * block, block));
    }
    auto self_in = in.subspan(static_cast<std::size_t>(rank_) * block, block);
    auto self_out = out.subspan(static_cast<std::size_t>(rank_) * block, block);
    std::copy(self_in.begin(), self_in.end(), self_out.begin());
    for (int r = 0; r < size_; ++r) {
      if (r == rank_) continue;
      recv_internal(r, tag,
                    out.subspan(static_cast<std::size_t>(r) * block, block));
    }
  }

  // ---- communicator management ----------------------------------------------

  /// Partition this communicator by `color` (MPI_Comm_split): ranks with
  /// equal color form a new communicator ordered by (key, rank). Only the
  /// world communicator can be split (one nesting level), and at most 16
  /// split calls of up to 15 colors each are supported — enough for
  /// row/column sub-grids at every scale this framework runs.
  /// Collective over this communicator.
  Comm split(int color, int key);

 private:
  friend class Runtime;

  /// Sub-communicator constructor (used by split).
  Comm(detail::JobState* job, int rank, int size, int salt,
       std::vector<int> group)
      : job_(job),
        rank_(rank),
        size_(size),
        salt_(salt),
        group_(std::move(group)) {}

  /// Internal send/recv used by collectives: identical to the public pair
  /// but permitted to use the reserved collective tag space.
  template <Transportable T>
  void send_internal(int dest, int wire_tag, std::span<const T> values) {
    check_peer(dest, "send");
    post(dest, wire_tag, values);
  }

  template <Transportable T>
  void recv_internal(int source, int wire_tag, std::span<T> out) {
    check_peer(source, "recv");
    Envelope env = my_mailbox().pop_matching(translate(source), wire_tag);
    if (env.bytes.size() != out.size_bytes()) {
      throw UsageError("collective: message size mismatch");
    }
    if (!out.empty()) {
      std::memcpy(out.data(), env.bytes.data(), out.size_bytes());
    }
    my_mailbox().recycle(std::move(env));
    TransportTraits<T>::on_receive(std::span<T>(out.data(), out.size()));
  }

  // ---- fused collectives ----------------------------------------------------
  //
  // The fused implementations below mirror the mailbox decompositions
  // exactly — same virtual-rank numbering, same child order, same combine
  // order under the same LibraryGuard, same on_receive payloads attributed
  // to the same logical rank in the same per-rank order — but execute the
  // whole collective, every phase of it, as one combine on the last
  // arriving fiber instead of parked message hops. Transport stats record
  // the *logical* messages (each rank records its own sends before
  // arriving) so either path reports identical counts. See collective.hpp
  // for the arrival/epoch protocol and the pointer-safety argument.

  /// True when collectives should fuse: this is a multi-rank job (so it
  /// runs on the fiber scheduler) and the test toggle is on.
  [[nodiscard]] bool fused_active() const noexcept {
    return size_ > 1 && detail::fused_collectives_enabled();
  }

  /// This communicator's fused meeting point (created on first use).
  [[nodiscard]] detail::FusedGroup& fused_group() {
    if (fg_ == nullptr) {
      fg_ = &job_->fused.group(static_cast<std::uint32_t>(salt_));
    }
    return *fg_;
  }

  /// Count one logical tree message that the fused path did not
  /// physically enqueue, keeping messages_sent/bytes_sent path-independent.
  void record_logical_send(std::size_t bytes) noexcept {
    ++job_->messages_sent;
    job_->bytes_sent += bytes;
  }

  /// The epoch of the collective op about to run. Consumes the same SPMD
  /// sequence number that the mailbox path folds into its wire tags, so
  /// mixed fused/mailbox collective sequences stay aligned and every op
  /// gets a unique, monotonically increasing epoch per communicator.
  std::uint64_t next_collective_epoch(int slot) noexcept {
    const auto epoch = static_cast<std::uint64_t>(collective_seq_) + 1;
    next_collective_tag(slot);
    return epoch;
  }

  /// Park until the fused group's combiner publishes `epoch`. Abort and
  /// deadlock are observed after a wake: an arrival whose job aborted is
  /// never combined, because every rank checks the abort token before it
  /// arrives. The combiner's wake_all empties the wait list; only the
  /// teardown wakes leave this fiber's entry for it to remove.
  void await_fused(detail::FusedGroup& group, std::uint64_t epoch) {
    detail::Fiber* const self = FiberScheduler::current_fiber();
    group.waiters().add(self);
    while (group.done_epoch() < epoch) {
      job_->scheduler->park();
      if (group.done_epoch() >= epoch) return;
      if (job_->abort.triggered()) {
        group.waiters().remove(self);
        throw AbortError();
      }
      if (job_->scheduler->deadlocked()) {
        group.waiters().remove(self);
        throw DeadlockError(
            "collective blocked with no runnable fiber: deadlock");
      }
    }
  }

  /// Arrive at `group` for `epoch` as virtual rank `vrank`. The last
  /// arriver runs `combine` and wakes the group; everyone else parks
  /// until it has.
  template <typename Combine>
  void arrive_fused(detail::FusedGroup& group, int vrank,
                    std::uint64_t epoch, const detail::Arrival& arrival,
                    Combine&& combine) {
    switch (group.arrive(vrank, epoch, arrival, size_)) {
      case detail::FusedGroup::ArriveOutcome::EpochMismatch:
        throw UsageError("collective: SPMD sequence mismatch");
      case detail::FusedGroup::ArriveOutcome::Combiner:
        combine();
        group.complete(epoch, *job_->scheduler);
        return;
      case detail::FusedGroup::ArriveOutcome::Waiter:
        await_fused(group, epoch);
        return;
    }
  }

  /// This rank's arrival: `data`/`len` its contribution, `out`/`out_len`
  /// its result slot.
  template <Transportable T>
  static detail::Arrival make_arrival(detail::FusedOp op, const T* data,
                                      std::size_t len, T* out,
                                      std::size_t out_len) {
    detail::Arrival arrival;
    // The combiner writes through `data` only for reduce accumulators,
    // which are always this rank's own mutable buffers.
    arrival.data = reinterpret_cast<std::byte*>(const_cast<T*>(data));
    arrival.len = len * sizeof(T);
    arrival.out = reinterpret_cast<std::byte*>(out);
    arrival.out_len = out_len * sizeof(T);
    arrival.fiber = FiberScheduler::current_fiber();
    arrival.op = op;
    return arrival;
  }

  /// Record the logical bcast edges from virtual rank `vrank` to its
  /// children, exactly as the mailbox tree walk would send them.
  void record_bcast_sends(int vrank, std::size_t bytes) noexcept {
    for (int child_v : {2 * vrank + 1, 2 * vrank + 2}) {
      if (child_v < size_) record_logical_send(bytes);
    }
  }

  /// Combiner side of a fused bcast: pre-order walk from virtual rank
  /// `v`, copying each parent's result slot to its children and replaying
  /// the child's receive instrumentation under the child's own fiber TLS.
  /// The copy source is the *parent's* buffer, not the root's: the
  /// mailbox walk forwards whatever bytes a rank holds after its own
  /// receive, so a payload flip landing mid-tree contaminates that rank's
  /// whole subtree. Copying from the root would silently localize the
  /// corruption and make trial outcomes scheduler-dependent.
  template <Transportable T>
  void combine_bcast_subtree(detail::FusedGroup& group, int v) {
    const detail::Arrival& parent = group.slot(v);
    for (int child_v : {2 * v + 1, 2 * v + 2}) {
      if (child_v >= size_) continue;
      detail::Arrival& child = group.slot(child_v);
      if (child.out_len != parent.out_len) {
        throw UsageError("collective: message size mismatch");
      }
      if (child.out_len != 0 && child.out != parent.out) {
        std::memcpy(child.out, parent.out, child.out_len);
      }
      {
        BorrowFiberTls borrow(child.fiber);
        TransportTraits<T>::on_receive(std::span<T>(
            reinterpret_cast<T*>(child.out), child.out_len / sizeof(T)));
      }
      combine_bcast_subtree<T>(group, child_v);
    }
  }

  /// Combiner side of a fused reduce: post-order walk (left child first,
  /// the mailbox path's fixed order) folding each child's accumulator
  /// into its parent's, replaying the parent's receive instrumentation
  /// and LibraryGuard under the parent's fiber TLS.
  template <Transportable T, typename Op>
  void combine_reduce_subtree(detail::FusedGroup& group, int v, Op op) {
    detail::Arrival& parent = group.slot(v);
    auto* parent_vals = reinterpret_cast<T*>(parent.data);
    const std::size_t count = parent.len / sizeof(T);
    for (int child_v : {2 * v + 1, 2 * v + 2}) {
      if (child_v >= size_) continue;
      combine_reduce_subtree<T>(group, child_v, op);
      detail::Arrival& child = group.slot(child_v);
      if (child.len != parent.len) {
        throw UsageError("collective: message size mismatch");
      }
      // child.data is the child's accumulator — a copy of its
      // contribution that the child never reads again — so a payload flip
      // here corrupts only what this parent combines, the same bytes the
      // mailbox path would have flipped in its own receive temp.
      auto* child_vals = reinterpret_cast<T*>(child.data);
      BorrowFiberTls borrow(parent.fiber);
      TransportTraits<T>::on_receive(std::span<T>(child_vals, count));
      // Combine as library code: not application computation.
      [[maybe_unused]] typename TransportTraits<T>::LibraryGuard guard{};
      for (std::size_t i = 0; i < count; ++i) {
        parent_vals[i] = op(parent_vals[i], child_vals[i]);
      }
    }
  }

  /// Fused allreduce: the reduce tree, then the bcast tree, in one
  /// combine. `out` doubles as each rank's reduce accumulator: the root's
  /// accumulator is its result, and the bcast overwrites every other
  /// rank's `out` before anyone reads it.
  template <Transportable T, typename Op>
  void allreduce_fused(std::span<const T> in, std::span<T> out, Op op) {
    if (job_->abort.triggered()) throw AbortError();
    // The reduce's and the bcast's sequence numbers, in mailbox order.
    const std::uint64_t epoch = next_collective_epoch(1);
    next_collective_tag(0);
    if (rank_ != 0) record_logical_send(out.size_bytes());
    record_bcast_sends(rank_, out.size_bytes());
    if (!in.empty() && in.data() != out.data()) {
      std::memmove(out.data(), in.data(), in.size_bytes());
    }
    detail::FusedGroup& group = fused_group();
    arrive_fused(group, rank_, epoch,
                 make_arrival(detail::FusedOp::Allreduce, out.data(),
                              out.size(), out.data(), out.size()),
                 [&] {
                   combine_reduce_subtree<T>(group, 0, op);
                   combine_bcast_subtree<T>(group, 0);
                 });
  }

  /// Fused allgather: rank 0 gathers every contribution in rank order,
  /// then the bcast tree runs, in one combine.
  template <Transportable T>
  void allgather_fused(std::span<const T> in, std::span<T> out) {
    if (job_->abort.triggered()) throw AbortError();
    // The gather's and the bcast's sequence numbers, in mailbox order.
    const std::uint64_t epoch = next_collective_epoch(2);
    next_collective_tag(0);
    if (rank_ != 0) record_logical_send(in.size_bytes());
    record_bcast_sends(rank_, out.size_bytes());
    detail::FusedGroup& group = fused_group();
    arrive_fused(group, rank_, epoch,
                 make_arrival(detail::FusedOp::Allgather, in.data(), in.size(),
                              out.data(), out.size()),
                 [&] {
                   combine_gather_to_root<T>(group);
                   combine_bcast_subtree<T>(group, 0);
                 });
  }

  /// Combiner side of the gather onto rank 0: copy each rank's
  /// contribution into rank 0's result slot in rank order, replaying
  /// rank 0's receive instrumentation for every block but its own. Rank 0
  /// checked that its slot holds size() blocks of its own length.
  template <Transportable T>
  void combine_gather_to_root(detail::FusedGroup& group) {
    const detail::Arrival& root = group.slot(0);
    BorrowFiberTls borrow(root.fiber);
    for (int r = 0; r < size_; ++r) {
      const detail::Arrival& from = group.slot(r);
      if (from.len != root.len) {
        throw UsageError("collective: message size mismatch");
      }
      std::byte* slot = root.out + static_cast<std::size_t>(r) * root.len;
      if (from.len != 0 && from.data != slot) {
        std::memmove(slot, from.data, from.len);
      }
      if (r != 0) {
        TransportTraits<T>::on_receive(
            std::span<T>(reinterpret_cast<T*>(slot), from.len / sizeof(T)));
      }
    }
  }

  template <Transportable T>
  void alltoall_fused(std::span<const T> in, std::span<T> out) {
    if (job_->abort.triggered()) throw AbortError();
    const std::uint64_t epoch = next_collective_epoch(4);
    const std::size_t block_bytes =
        in.size_bytes() / static_cast<std::size_t>(size_);
    for (int r = 0; r < size_ - 1; ++r) record_logical_send(block_bytes);
    detail::FusedGroup& group = fused_group();
    arrive_fused(group, rank_, epoch,
                 make_arrival(detail::FusedOp::Alltoall, in.data(), in.size(),
                              out.data(), out.size()),
                 [&] { combine_alltoall<T>(group); });
  }

  /// Combiner side of a fused alltoall: for each receiver in rank order,
  /// copy block r of every sender's `in` into block i of the receiver's
  /// `out` and replay the receiver's on_receive per peer block in the
  /// mailbox receive order, under one borrow of the receiver's TLS. A
  /// sender's `in` is still intact when a later receiver reads it,
  /// because `in` may overlap `out` only in the rank's own block, which
  /// no other receiver reads.
  template <Transportable T>
  void combine_alltoall(detail::FusedGroup& group) {
    const std::size_t bytes = group.slot(0).len;
    for (int r = 1; r < size_; ++r) {
      if (group.slot(r).len != bytes) {
        throw UsageError("collective: message size mismatch");
      }
    }
    const std::size_t block = bytes / static_cast<std::size_t>(size_);
    for (int r = 0; r < size_; ++r) {
      const detail::Arrival& to = group.slot(r);
      BorrowFiberTls borrow(to.fiber);
      for (int i = 0; i < size_; ++i) {
        std::byte* slot = to.out + static_cast<std::size_t>(i) * block;
        const std::byte* from =
            group.slot(i).data + static_cast<std::size_t>(r) * block;
        if (block != 0 && from != slot) std::memmove(slot, from, block);
        if (i != r) {
          TransportTraits<T>::on_receive(
              std::span<T>(reinterpret_cast<T*>(slot), block / sizeof(T)));
        }
      }
    }
  }

  /// Reject an `in` that shares bytes with `out` anywhere but between
  /// `in_own` and `out_own` (this rank's own blocks). The fused combine
  /// reads peers' `in` after it has written earlier receivers' `out`,
  /// while the mailbox path copies at send time; with such aliasing the
  /// two would silently differ. Only this rank's buffers are checked.
  template <Transportable T>
  static void check_own_block_only(std::span<const T> in,
                                   std::span<const T> in_own,
                                   std::span<T> out, std::span<T> out_own,
                                   const char* what) {
    const auto overlaps = [](const T* a, std::size_t an, const T* b,
                             std::size_t bn) {
      const auto a0 = reinterpret_cast<std::uintptr_t>(a);
      const auto b0 = reinterpret_cast<std::uintptr_t>(b);
      return an != 0 && bn != 0 && a0 < b0 + bn * sizeof(T) &&
             b0 < a0 + an * sizeof(T);
    };
    const T* in_end = in.data() + in.size();
    const T* own_end = in_own.data() + in_own.size();
    const T* out_end = out.data() + out.size();
    const T* out_own_end = out_own.data() + out_own.size();
    if (overlaps(in.data(), static_cast<std::size_t>(in_own.data() - in.data()),
                 out.data(), out.size()) ||
        overlaps(own_end, static_cast<std::size_t>(in_end - own_end),
                 out.data(), out.size()) ||
        overlaps(in_own.data(), in_own.size(), out.data(),
                 static_cast<std::size_t>(out_own.data() - out.data())) ||
        overlaps(in_own.data(), in_own.size(), out_own_end,
                 static_cast<std::size_t>(out_end - out_own_end))) {
      throw UsageError(std::string(what) +
                       ": in overlaps another block of out");
    }
  }

  /// Local rank -> world rank.
  [[nodiscard]] int translate(int local) const noexcept {
    return group_.empty() ? local : group_[static_cast<std::size_t>(local)];
  }

  [[nodiscard]] Mailbox& my_mailbox() const {
    return *job_->mailboxes[static_cast<std::size_t>(translate(rank_))];
  }

  /// A checked local source rank as its wire (world) source.
  [[nodiscard]] int wire_source(int source, const char* what) const {
    check_peer(source, what);
    return translate(source);
  }

  /// A checked user tag salted with this communicator's tag space.
  [[nodiscard]] int salted_tag(int tag) const {
    check_tag(tag);
    return detail::wire_user_tag(salt_, tag);
  }

  void check_peer(int peer, const char* what) const {
    if (peer < 0 || peer >= size_) {
      throw UsageError(std::string(what) + ": rank " + std::to_string(peer) +
                       " out of range [0, " + std::to_string(size_) + ")");
    }
  }

  static void check_tag(int tag) {
    if (tag < 0 || tag > kMaxUserTag) {
      throw UsageError("tag " + std::to_string(tag) + " out of user range");
    }
  }

  /// Per-rank collective sequence counter. Because every rank executes the
  /// same sequence of collectives (SPMD), identical counters on each rank
  /// yield matching tags without any global coordination.
  int next_collective_tag(int slot) noexcept {
    return detail::wire_internal_tag(salt_, collective_seq_++, slot);
  }

  template <Transportable T>
  void post(int dest, int wire_tag, std::span<const T> values) {
    Mailbox& dest_box =
        *job_->mailboxes[static_cast<std::size_t>(translate(dest))];
    Envelope env;
    env.source = translate(rank_);
    env.tag = wire_tag;
    // Recycle payload capacity from envelopes the destination already
    // consumed; steady-state traffic allocates nothing.
    env.bytes = dest_box.acquire_buffer(values.size_bytes());
    if (!values.empty()) {
      std::memcpy(env.bytes.data(), values.data(), values.size_bytes());
    }
    if (job_->abort.triggered()) throw AbortError();
    ++job_->messages_sent;
    job_->bytes_sent += values.size_bytes();
    dest_box.push(std::move(env));
  }

  detail::JobState* job_;
  int rank_;
  int size_;
  int salt_ = 0;
  std::vector<int> group_;  ///< local -> world rank map; empty on the world
  detail::FusedGroup* fg_ = nullptr;  ///< cached fused-hub lookup
  int collective_seq_ = 0;
  int split_seq_ = 0;
};

}  // namespace resilience::simmpi
