#include "shard/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "apps/app.hpp"
#include "harness/campaign_engine.hpp"
#include "harness/golden_store.hpp"
#include "shard/protocol.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"
#include "util/options.hpp"

namespace resilience::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// One dispatchable slice of a campaign: contiguous refs, executed as a
/// unit on one worker. `results`/`wall` are filled when the unit's result
/// frame arrives; a unit lost to a worker crash is simply re-dispatched.
struct Unit {
  std::vector<harness::TrialRef> refs;
  std::optional<std::vector<harness::TrialResult>> results;
  double wall = 0.0;
};

/// Owns the worker fleet for one campaign: spawning over socketpairs,
/// dispatching units, folding worker metric snapshots into the campaign
/// scope, and replacing workers that die or wedge.
class Coordinator {
 public:
  Coordinator(const apps::App& app, const harness::DeploymentConfig& config,
              const ShardOptions& opts, int shards, std::string store_dir,
              telemetry::MetricScope& metrics)
      : app_(app),
        config_(config),
        opts_(opts),
        store_dir_(std::move(store_dir)),
        metrics_(metrics),
        drill_armed_(opts.debug_kill_unit >= 0) {
    worker_path_ = opts.worker_path.empty() ? "/proc/self/exe"
                                            : opts.worker_path;
    workers_.resize(static_cast<std::size_t>(shards));
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      // The crash-recovery hook arms only the first incarnation of worker
      // 0; its replacement (and every other worker) runs to completion.
      spawn_worker(slot, slot == 0 ? opts.debug_kill_unit : -1);
    }
  }

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  ~Coordinator() {
    try {
      absorb_ready_frames();
    } catch (...) {
      // Only late workers' ready metrics are lost; shutdown goes on.
    }
    for (Worker& w : workers_) {
      if (w.fd < 0) continue;
      try {
        write_message(w.fd, ShutdownMsg{});
      } catch (...) {
      }
      ::close(w.fd);
      w.fd = -1;
    }
    for (Worker& w : workers_) {
      if (w.pid > 0) ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
  }

  /// Drive `units` to completion across the fleet; fills every unit's
  /// results and wall. Throws std::runtime_error when the whole fleet is
  /// lost with work outstanding.
  void run_units(std::vector<Unit>& units) {
    units_ = &units;
    pending_.clear();
    for (std::size_t id = 0; id < units.size(); ++id) pending_.push_back(id);
    remaining_ = units.size();

    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      if (workers_[slot].fd >= 0 && workers_[slot].ready &&
          workers_[slot].unit < 0) {
        dispatch(slot);
      }
    }

    while (remaining_ > 0) {
      std::vector<pollfd> fds;
      std::vector<std::size_t> slots;
      int timeout_ms = -1;
      const auto now = Clock::now();
      for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
        const Worker& w = workers_[slot];
        if (w.fd < 0) continue;
        fds.push_back({w.fd, POLLIN, 0});
        slots.push_back(slot);
        if (w.unit >= 0 || !w.ready) {
          timeout_ms = earlier_timeout(timeout_ms, w.deadline, now);
        }
      }
      if (fds.empty()) {
        throw std::runtime_error(
            "shard: all workers lost with " + std::to_string(remaining_) +
            " unit(s) outstanding" +
            (last_error_.empty() ? "" : " (last worker error: " + last_error_ +
                                            ")"));
      }

      const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("shard: poll failed: ") +
                                 std::strerror(errno));
      }

      // Drain readable sockets before enforcing deadlines: a frame that
      // already sits in the buffer proves the worker is alive, and
      // processing it may clear the deadline condition.
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        handle_readable(slots[i]);
      }
      const auto after = Clock::now();
      for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
        Worker& w = workers_[slot];
        if (w.fd < 0 || (w.unit < 0 && w.ready)) continue;
        if (w.deadline <= after) {
          ::kill(w.pid, SIGKILL);
          handle_worker_down(slot);
        }
      }
    }
    units_ = nullptr;
  }

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    bool handshaken = false;  ///< protocol handshake echoed and validated
    /// This incarnation already sent an ErrorMsg naming its failure; the
    /// transport noise that follows (ECONNRESET from its exit) must not
    /// overwrite that cause in last_error_.
    bool errored = false;
    bool ready = false;
    int unit = -1;  ///< in-flight unit id, -1 when idle
    Clock::time_point deadline{};
  };

  /// `timeout_ms` (-1: none yet) shortened to reach `deadline`, as a
  /// poll timeout capped at a minute.
  static int earlier_timeout(int timeout_ms, Clock::time_point deadline,
                             Clock::time_point now) {
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    const int ms = static_cast<int>(std::max<std::int64_t>(
        0, std::min<std::int64_t>(left.count(), 60'000)));
    return timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
  }

  /// A worker's golden-store hit travels only in its ready frame. Before
  /// shutdown, read that frame from every worker that has not sent it
  /// yet, or stop at the worker's EOF or deadline. No unit is left, so
  /// none is dispatched and no worker is replaced.
  void absorb_ready_frames() {
    pending_.clear();
    remaining_ = 0;
    for (;;) {
      std::vector<pollfd> fds;
      std::vector<std::size_t> slots;
      int timeout_ms = -1;
      const auto now = Clock::now();
      for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
        const Worker& w = workers_[slot];
        if (w.fd < 0 || w.ready) continue;
        if (w.deadline <= now) {
          handle_worker_down(slot);
          continue;
        }
        fds.push_back({w.fd, POLLIN, 0});
        slots.push_back(slot);
        timeout_ms = earlier_timeout(timeout_ms, w.deadline, now);
      }
      if (fds.empty()) return;
      if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
        return;
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        handle_readable(slots[i]);
      }
    }
  }

  void spawn_worker(std::size_t slot, int kill_after_units) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error(std::string("shard: socketpair failed: ") +
                               std::strerror(errno));
    }
    // The coordinator end must not leak into workers forked later — a
    // worker holding a sibling's coordinator fd would mask that sibling's
    // EOF. The worker end stays inheritable across exec by design.
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    const std::string fd_arg = "--shard-worker=" + std::to_string(sv[1]);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw std::runtime_error(std::string("shard: fork failed: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      // Child: only async-signal-safe calls until exec (the parent may be
      // multi-threaded — executor pools survive from earlier campaigns).
      ::execl(worker_path_.c_str(), worker_path_.c_str(), fd_arg.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(sv[1]);
    Worker& w = workers_[slot];
    w.pid = pid;
    w.fd = sv[0];
    w.handshaken = false;
    w.errored = false;
    w.ready = false;
    w.unit = -1;
    w.deadline = Clock::now() + opts_.unit_timeout;

    InitMsg init;
    init.app = app_.name();
    init.size_class = app_.size_class();
    init.config = config_;
    init.store = store_dir_;
    init.kill_after_units = kill_after_units;
    try {
      // Handshake first, init pipelined behind it: the worker validates
      // the handshake before it parses anything else.
      write_handshake(w.fd);
      write_message(w.fd, init);
    } catch (const std::exception&) {
      // A worker that died before reading init surfaces as EOF in the
      // event loop; the recovery path there replaces it.
    }
  }

  void dispatch(std::size_t slot) {
    if (pending_.empty()) return;
    // While the crash drill is armed only worker 0 receives units, so it
    // dies after exactly debug_kill_unit results however fast the others
    // start (otherwise a quick sibling could drain every unit first).
    if (drill_armed_ && slot != 0) return;
    Worker& w = workers_[slot];
    const std::size_t id = pending_.front();
    pending_.pop_front();
    try {
      write_message(w.fd, UnitMsg{static_cast<std::uint64_t>(id),
                                  (*units_)[id].refs});
    } catch (const std::exception&) {
      pending_.push_front(id);
      handle_worker_down(slot);
      return;
    }
    w.unit = static_cast<int>(id);
    w.deadline = Clock::now() + opts_.unit_timeout;
    telemetry::ScopeGuard guard(&metrics_);
    telemetry::count(telemetry::Counter::ShardUnitsDispatched);
  }

  void handle_readable(std::size_t slot) {
    Worker& w = workers_[slot];
    if (w.fd < 0) return;
    std::optional<std::vector<std::byte>> payload;
    try {
      payload = read_frame_bytes(w.fd);
    } catch (const std::exception& e) {
      if (!w.errored) last_error_ = e.what();
      handle_worker_down(slot);
      return;
    }
    if (!payload) {
      handle_worker_down(slot);
      return;
    }
    if (!w.handshaken) {
      handle_handshake(slot, *payload);
      return;
    }
    Message msg;
    try {
      msg = decode_message(*payload);
    } catch (const std::exception& e) {
      last_error_ = e.what();
      handle_worker_down(slot);
      return;
    }
    if (const auto* ready = std::get_if<ReadyMsg>(&msg)) {
      w.ready = true;
      metrics_.absorb(ready->metrics);
      dispatch(slot);
      return;
    }
    if (auto* result = std::get_if<ResultMsg>(&msg)) {
      if (std::string bad = result_mismatch(w, *result); !bad.empty()) {
        last_error_ = std::move(bad);
        handle_worker_down(slot);
        return;
      }
      Unit& unit = (*units_)[static_cast<std::size_t>(w.unit)];
      unit.results = std::move(result->outcomes);
      unit.wall = result->wall_seconds;
      metrics_.absorb(result->metrics);
      w.unit = -1;
      remaining_ -= 1;
      dispatch(slot);
      return;
    }
    if (const auto* error = std::get_if<ErrorMsg>(&msg)) {
      last_error_ = error->message;
      w.errored = true;
      // The worker exits right after; its EOF drives the recovery path.
      return;
    }
    last_error_ = "shard: unexpected frame from worker";
    handle_worker_down(slot);
  }

  /// A result must answer the unit in flight on its worker with one
  /// outcome per ref, each contaminating between -1 (unknown) and nranks
  /// ranks. Anything else (a stray id, a wrong count, a duplicate or
  /// unsolicited result, a contamination count no job can have) comes
  /// from a confused worker and must not reach the tallies. Returns why
  /// the frame is rejected, or "" when it is valid.
  std::string result_mismatch(const Worker& w, const ResultMsg& result) const {
    const std::string unit = "shard: result for unit " +
                             std::to_string(result.id);
    if (w.unit < 0) return unit + " from a worker with no unit in flight";
    if (result.id != static_cast<std::uint64_t>(w.unit)) {
      return unit + " while unit " + std::to_string(w.unit) +
             " is in flight on that worker";
    }
    const std::size_t refs = (*units_)[static_cast<std::size_t>(w.unit)]
                                 .refs.size();
    if (result.outcomes.size() != refs) {
      return unit + " carries " + std::to_string(result.outcomes.size()) +
             " outcome(s) for " + std::to_string(refs) + " ref(s)";
    }
    for (const harness::TrialResult& t : result.outcomes) {
      if (t.contaminated < -1 || t.contaminated > config_.nranks) {
        return unit + " reports " + std::to_string(t.contaminated) +
               " contaminated rank(s) in a " +
               std::to_string(config_.nranks) + "-rank job";
      }
    }
    return {};
  }

  /// First frame from a fresh worker: its handshake echo — or, when the
  /// worker bailed out (version mismatch, bad environment), its error
  /// frame, whose message is worth keeping over a generic parse failure.
  void handle_handshake(std::size_t slot, std::span<const std::byte> payload) {
    Worker& w = workers_[slot];
    if (const auto version = parse_handshake(payload)) {
      if (*version != kShardProtocolVersion) {
        last_error_ = "shard: worker speaks protocol version " +
                      std::to_string(*version) + ", coordinator speaks " +
                      std::to_string(kShardProtocolVersion);
        handle_worker_down(slot);
        return;
      }
      w.handshaken = true;
      return;
    }
    try {
      const Message msg = decode_message(payload);
      if (const auto* error = std::get_if<ErrorMsg>(&msg)) {
        last_error_ = error->message;
        w.errored = true;
        return;  // the worker's EOF drives the recovery path
      }
    } catch (const std::exception&) {
    }
    last_error_ = "shard: worker did not send a protocol handshake";
    handle_worker_down(slot);
  }

  /// Reap a dead (or presumed-wedged, already SIGKILLed) worker,
  /// re-enqueue its in-flight unit, and spawn a replacement while the
  /// restart budget lasts. The re-run unit produces identical outcomes —
  /// a crash costs wall time, never correctness.
  void handle_worker_down(std::size_t slot) {
    Worker& w = workers_[slot];
    if (w.fd < 0) return;
    ::kill(w.pid, SIGKILL);
    ::waitpid(w.pid, nullptr, 0);
    ::close(w.fd);
    w.fd = -1;
    w.pid = -1;
    w.ready = false;
    if (w.unit >= 0) {
      pending_.push_front(static_cast<std::size_t>(w.unit));
      w.unit = -1;
    }
    if (drill_armed_ && slot == 0) {
      // The drill fired (or its worker died first): hand the held-back
      // units to the idle workers.
      drill_armed_ = false;
      for (std::size_t other = 1; other < workers_.size(); ++other) {
        const Worker& o = workers_[other];
        if (o.fd >= 0 && o.ready && o.unit < 0) dispatch(other);
      }
    }
    if (remaining_ == 0) return;
    if (restarts_used_ >= opts_.max_worker_restarts) return;
    restarts_used_ += 1;
    {
      telemetry::ScopeGuard guard(&metrics_);
      telemetry::count(telemetry::Counter::ShardWorkerRestarts);
    }
    spawn_worker(slot, /*kill_after_units=*/-1);
  }

  const apps::App& app_;
  const harness::DeploymentConfig& config_;
  const ShardOptions& opts_;
  std::string store_dir_;
  std::string worker_path_;
  telemetry::MetricScope& metrics_;
  std::vector<Worker> workers_;
  std::vector<Unit>* units_ = nullptr;
  std::deque<std::size_t> pending_;
  std::size_t remaining_ = 0;
  int restarts_used_ = 0;
  bool drill_armed_;  ///< worker 0's first incarnation still carries the drill
  std::string last_error_;
};

/// Removes the campaign's private temp golden store on every exit path,
/// a campaign that throws included. An empty `dir` (a caller-owned
/// store) is kept.
struct TempStoreRemover {
  std::string dir;
  ~TempStoreRemover() {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

}  // namespace

ShardOptions ShardOptions::from_runtime() {
  const auto& opt = util::RuntimeOptions::global();
  ShardOptions s;
  s.shards = opt.shards;
  s.golden_store_dir = opt.golden_store;
  s.debug_kill_unit = opt.shard_kill_unit;
  return s;
}

harness::CampaignResult run_sharded_campaign(
    const apps::App& app, const harness::DeploymentConfig& cfg,
    const ShardOptions& opts, telemetry::MetricScope* metrics_parent) {
  // Dispatching a unit to a worker that just died must surface as EPIPE
  // (an exception the recovery path handles), not a process signal.
  ::signal(SIGPIPE, SIG_IGN);
  const int shards = std::max(1, opts.shards);

  telemetry::MetricScope metrics(metrics_parent);
  telemetry::TraceSpan span("shard", "campaign", "trials", cfg.trials);

  harness::CampaignResult result;
  result.config = cfg;

  std::string store_dir = opts.golden_store_dir;
  TempStoreRemover temp_store;
  if (store_dir.empty()) {
    store_dir = (std::filesystem::temp_directory_path() /
                 ("resilience-shard-" + std::to_string(::getpid())))
                    .string();
    temp_store.dir = store_dir;
  }

  {
    // Golden pre-pass: fill the store before spawning workers so the
    // campaign profiles exactly once (one HarnessGoldenProfiles here) and
    // every worker's acquisition is a disk hit.
    telemetry::ScopeGuard guard(&metrics);
    telemetry::count(telemetry::Counter::HarnessCampaigns);
    harness::GoldenStore store(store_dir);
    const auto golden = store.load_or_fill(app, cfg.nranks, [&] {
      telemetry::count(telemetry::Counter::HarnessGoldenProfiles);
      return harness::profile_app(app, cfg.nranks);
    });
    result.golden = *golden;
  }

  // Fixed campaigns run several units per worker, like the in-process
  // chunk shape: large enough to amortise framing, small enough to
  // balance the tail. Adaptive batches fan out as at most one unit per
  // worker, with a barrier at the batch boundary (the stop rule needs the
  // whole batch folded).
  const std::size_t max_units = static_cast<std::size_t>(shards) *
                                (cfg.adaptive.enabled ? 1 : 4);
  std::optional<Coordinator> coord;
  harness::run_campaign_loop(
      app, result, metrics,
      [&](const harness::TrialSpace&, const std::vector<harness::TrialRef>& refs,
          std::vector<harness::TrialResult>& out) {
        // The loop has validated the deployment: only now spawn workers.
        if (!coord) coord.emplace(app, cfg, opts, shards, store_dir, metrics);
        std::vector<Unit> units;
        for (const auto& [lo, hi] :
             harness::contiguous_chunks(refs.size(), max_units)) {
          units.emplace_back().refs.assign(
              refs.begin() + static_cast<std::ptrdiff_t>(lo),
              refs.begin() + static_cast<std::ptrdiff_t>(hi));
        }
        coord->run_units(units);
        // Unit order is ref order: concatenating by unit id restores it.
        double seconds = 0.0;
        auto next = out.begin();
        for (const Unit& unit : units) {
          seconds += unit.wall;
          next = std::copy(unit.results->begin(), unit.results->end(), next);
        }
        return seconds;
      });
  coord.reset();  // shutdown frames, close, reap: before the snapshot

  result.metrics = metrics.snapshot();
  return result;
}

}  // namespace resilience::shard
