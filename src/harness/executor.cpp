#include "harness/executor.hpp"

#include <algorithm>

#include "util/options.hpp"

namespace resilience::harness {

namespace {
// Set while a thread is executing pool tasks; run() from such a thread
// falls back to inline execution instead of enqueueing and waiting on
// workers that may all be blocked the same way.
thread_local bool tl_in_worker = false;
}  // namespace

int Executor::resolve_workers(int requested) noexcept {
  if (requested > 0) return requested;
  const int configured = util::RuntimeOptions::global().threads;
  if (configured > 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Executor::Executor(int max_workers)
    : workers_(std::max(resolve_workers(max_workers), 1)) {
  if (workers_ <= 1) return;
  threads_.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  ready_.notify_all();
  for (auto& t : threads_) t.join();
}

void Executor::run_inline(std::vector<Task>& tasks) {
  std::exception_ptr first;
  const bool outer = !tl_in_worker;
  if (outer) tl_in_worker = true;
  for (auto& task : tasks) {
    try {
      task();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (outer) tl_in_worker = false;
  if (first) std::rethrow_exception(first);
}

void Executor::run(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  if (workers_ <= 1 || tl_in_worker) {
    run_inline(tasks);
    return;
  }

  Batch batch;
  batch.pending = tasks.size();
  {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      queue_.push_back({&batch, i, std::move(tasks[i])});
    }
  }
  ready_.notify_all();

  std::unique_lock lock(mu_);
  batch.done.wait(lock, [&] { return batch.pending == 0; });
  if (batch.error) std::rethrow_exception(batch.error);
}

void Executor::worker_main() {
  tl_in_worker = true;
  std::unique_lock lock(mu_);
  for (;;) {
    ready_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;

    Queued item = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();

    std::exception_ptr error;
    try {
      item.fn();
    } catch (...) {
      error = std::current_exception();
    }

    lock.lock();
    Batch& batch = *item.batch;
    if (error && (!batch.error || item.index < batch.error_index)) {
      batch.error = error;
      batch.error_index = item.index;
    }
    if (--batch.pending == 0) batch.done.notify_all();
  }
}

}  // namespace resilience::harness
