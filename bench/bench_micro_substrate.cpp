// Micro-benchmarks of the substrates (google-benchmark): the cost of the
// instrumented Real relative to plain double, the injector's hot path,
// and simmpi messaging/collective latency across job sizes — the numbers
// that determine how long a fault-injection campaign takes.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "apps/fft.hpp"
#include "apps/kernels.hpp"
#include "fsefi/real.hpp"
#include "fsefi/transport.hpp"
#include "harness/runner.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using resilience::fsefi::ContextGuard;
using resilience::fsefi::FaultContext;
using resilience::fsefi::Real;
using resilience::simmpi::Comm;
using resilience::simmpi::Runtime;

void BM_DoubleAxpy(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<double> x(n, 1.5), y(n, 0.5);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += 1.000001 * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DoubleAxpy);

void BM_RealAxpyUninstrumented(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyUninstrumented)->Repetitions(9);

void BM_RealAxpyUnderContext(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FaultContext ctx;
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyUnderContext)->Repetitions(9);

void BM_RealAxpyArmedPlan(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FaultContext ctx;
  resilience::fsefi::InjectionPlan plan;
  plan.points = {{.op_index = ~0ULL, .operand = 0, .bit = 0}};  // never fires
  ctx.arm(std::move(plan));
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyArmedPlan)->Repetitions(9);

// ---- telemetry overhead (DESIGN.md §10) ------------------------------------
// Telemetry must cost one branch when disabled: the TelemetryOff leg pins
// set_metrics_enabled(false) around the default unarmed axpy, and
// merge_bench.py derives telemetry_overhead.disabled = TelemetryOff /
// UnderContext (acceptance bar <= 1.05). The Scoped leg arms a
// never-firing plan under a live metric scope, so every countdown refill
// pays an enabled count() — the heaviest per-op-stream telemetry cost a
// campaign trial sees.

/// Scoped override of the metrics switch; restores the default on exit.
struct MetricsMode {
  explicit MetricsMode(bool enabled) {
    resilience::telemetry::set_metrics_enabled(enabled);
  }
  ~MetricsMode() { resilience::telemetry::set_metrics_enabled(true); }
};

void BM_RealAxpyTelemetryOff(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  MetricsMode mode(false);
  FaultContext ctx;
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyTelemetryOff)->Repetitions(9);

void BM_RealAxpyTelemetryScoped(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  resilience::telemetry::MetricScope scope;
  resilience::telemetry::ScopeGuard scope_guard(&scope);
  FaultContext ctx;
  resilience::fsefi::InjectionPlan plan;
  plan.points = {{.op_index = ~0ULL, .operand = 0, .bit = 0}};  // never fires
  ctx.arm(std::move(plan));
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyTelemetryScoped)->Repetitions(9);

// ---- instrumented-arithmetic fast path (DESIGN.md §8) ----------------------
// The per-op legs above run in the production configuration (countdown
// fast path). The *Reference legs below pin set_fast_real_enabled(false)
// — the pre-countdown implementation — so tools/merge_bench.py can derive
// real_scalar_speedup (acceptance bar: >= 3x unarmed) and
// blocked_dot_speedup (>= 5x) from the same dump.

/// Scoped override of the fast-real toggle; contexts latch it at
/// construction/reset/arm, so set it before creating the context.
struct FastRealMode {
  explicit FastRealMode(bool fast) {
    resilience::fsefi::set_fast_real_enabled(fast);
  }
  ~FastRealMode() { resilience::fsefi::set_fast_real_enabled(true); }
};

void BM_RealAxpyUnderContextReference(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FastRealMode mode(false);
  FaultContext ctx;
  ctx.reset();
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyUnderContextReference)->Repetitions(9);

void BM_RealAxpyArmedPlanReference(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FastRealMode mode(false);
  FaultContext ctx;
  resilience::fsefi::InjectionPlan plan;
  plan.points = {{.op_index = ~0ULL, .operand = 0, .bit = 0}};  // never fires
  ctx.arm(std::move(plan));
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyArmedPlanReference)->Repetitions(9);

// ---- seed-path baseline ----------------------------------------------------
// The *Reference legs above still benefit from this repo's inlined
// thread-local context lookup; the seed fetched the context through an
// out-of-line call (current_context lived in fault_context.cpp) on every
// instrumented operation. The SeedPath legs reproduce that pre-PR call
// structure — out-of-line lookup per op + the pre-countdown per-op
// bookkeeping (preserved as the reference path) — so merge_bench.py can
// report the speedup this PR actually delivered over the seed.

__attribute__((noinline)) FaultContext* seed_context_lookup() {
  return resilience::fsefi::current_context();
}

// seed_binary/seed_eval replicate header-inline seed code, so only the
// context lookup may stay out of line.
__attribute__((always_inline)) inline double seed_eval(
    resilience::fsefi::OpKind kind, double a, double b) {
  using resilience::fsefi::OpKind;
  switch (kind) {
    case OpKind::Add:
      return a + b;
    case OpKind::Mul:
      return a * b;
    default:
      std::abort();  // the axpy loop only dispatches Add and Mul
  }
}

/// One instrumented op exactly as the seed's Real::binary performed it.
__attribute__((always_inline)) inline Real seed_binary(
    resilience::fsefi::OpKind kind, Real a, Real b) {
  double av = a.value(), bv = b.value();
  if (FaultContext* ctx = seed_context_lookup()) {
    ctx->on_op(kind, av, bv);
    const Real r = Real::corrupted(seed_eval(kind, av, bv),
                                   seed_eval(kind, a.shadow(), b.shadow()));
    ctx->observe_result(r.value(), r.shadow());
    return r;
  }
  return Real::corrupted(seed_eval(kind, av, bv),
                         seed_eval(kind, a.shadow(), b.shadow()));
}

void BM_RealAxpySeedPath(benchmark::State& state) {
  using resilience::fsefi::OpKind;
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FastRealMode mode(false);
  FaultContext ctx;
  ctx.reset();
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = seed_binary(OpKind::Add,
                         seed_binary(OpKind::Mul, Real(1.000001), x[i]), y[i]);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpySeedPath)->Repetitions(9);

void BM_RealAxpySeedPathArmed(benchmark::State& state) {
  using resilience::fsefi::OpKind;
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FastRealMode mode(false);
  FaultContext ctx;
  resilience::fsefi::InjectionPlan plan;
  plan.points = {{.op_index = ~0ULL, .operand = 0, .bit = 0}};  // never fires
  ctx.arm(std::move(plan));
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = seed_binary(OpKind::Add,
                         seed_binary(OpKind::Mul, Real(1.000001), x[i]), y[i]);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpySeedPathArmed)->Repetitions(9);

void BM_DotPlainDouble(benchmark::State& state) {
  const std::size_t n = 4096;  // matches the LocalDot legs below
  std::vector<double> a(n, 1.5), b(n, 0.75);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DotPlainDouble);

/// local_dot under an unarmed context (the golden pre-pass configuration):
/// its 128-element chunk cells run in quiet windows on PackedReal.
void BM_LocalDotUnderContext(benchmark::State& state) {
  const std::size_t n = 4096;
  std::vector<Real> a(n, Real(1.5)), b(n, Real(0.75));
  FaultContext ctx;
  ctx.reset();
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    Real acc = resilience::apps::local_dot(a, b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_LocalDotUnderContext)->Repetitions(9);

/// Same kernel with a never-firing plan armed: the campaign configuration
/// between injections.
void BM_LocalDotArmedPlan(benchmark::State& state) {
  const std::size_t n = 4096;
  std::vector<Real> a(n, Real(1.5)), b(n, Real(0.75));
  FaultContext ctx;
  resilience::fsefi::InjectionPlan plan;
  plan.points = {{.op_index = ~0ULL, .operand = 0, .bit = 0}};
  ctx.arm(std::move(plan));
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    Real acc = resilience::apps::local_dot(a, b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_LocalDotArmedPlan)->Repetitions(9);

/// The seed behavior: quiet_ops() is 0 on the reference path, so every
/// chunk cell of the same kernel runs on per-op instrumented arithmetic.
void BM_LocalDotReference(benchmark::State& state) {
  const std::size_t n = 4096;
  std::vector<Real> a(n, Real(1.5)), b(n, Real(0.75));
  FastRealMode mode(false);
  FaultContext ctx;
  ctx.reset();
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    Real acc = resilience::apps::local_dot(a, b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_LocalDotReference)->Repetitions(9);

// ---- app FP work ------------------------------------------------------------
// Whole-app cost of the instrumented arithmetic: one fault-free 1-rank run
// (the serial-sweep golden configuration) per iteration. ns_per_op is the
// run time divided by the run's dynamic op count, so apps of different
// sizes compare directly.

void BM_AppRunSerial(benchmark::State& state,
                     const resilience::apps::App& app) {
  std::uint64_t ops = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const auto run = resilience::harness::run_app_once(app, 1, {});
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(elapsed.count());
    seconds += elapsed.count();
    ops = run.profiles.at(0).total();
    benchmark::DoNotOptimize(run.result);
  }
  state.counters["ns_per_op"] =
      seconds * 1e9 /
      (static_cast<double>(ops) * static_cast<double>(state.iterations()));
}

/// Registers BM_AppRunSerial/<app> for each of the six benchmark apps.
const bool kAppRunsRegistered = [] {
  for (const auto id : resilience::apps::all_app_ids()) {
    std::shared_ptr<const resilience::apps::App> app =
        resilience::apps::make_app(id);
    benchmark::RegisterBenchmark(
        ("BM_AppRunSerial/" + app->name()).c_str(),
        [app](benchmark::State& state) { BM_AppRunSerial(state, *app); })
        ->UseManualTime();
  }
  return true;
}();

/// FT's FFT kernel under an unarmed context: quiet windows of butterfly
/// cells run on PackedReal. The row is reloaded every iteration so
/// repeated unnormalized transforms never overflow.
void fft_transform_under_context(benchmark::State& state) {
  constexpr int n = 256;
  const resilience::apps::FftPlan plan(n);
  std::vector<resilience::apps::RComplex> input(n), row(n);
  for (int i = 0; i < n; ++i) {
    input[static_cast<std::size_t>(i)] = {Real(0.5 + 0.001 * i),
                                          Real(0.25 - 0.002 * i)};
  }
  FaultContext ctx;
  ctx.reset();
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    row = input;
    plan.transform(std::span<resilience::apps::RComplex>(row), false);
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  // (n/2) log2(n) butterflies of 10 ops each.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (n / 2) * 8 * 10);
}

void BM_FftTransformUnderContext(benchmark::State& state) {
  fft_transform_under_context(state);
}
BENCHMARK(BM_FftTransformUnderContext)->Repetitions(9);

/// The same transform on the per-op reference path (quiet_ops is 0).
void BM_FftTransformUnderContextReference(benchmark::State& state) {
  FastRealMode mode(false);
  fft_transform_under_context(state);
}
BENCHMARK(BM_FftTransformUnderContextReference)->Repetitions(9);

/// One damped-Jacobi sweep of MG's finest level (128 x 10, one rank) under
/// an unarmed context: quiet windows of whole cells run on PackedReal.
/// The sweep writes a separate buffer, so every iteration
/// smooths the same input.
void mg_smooth_under_context(benchmark::State& state) {
  constexpr int rows = 128;
  constexpr int cols = 10;
  constexpr std::size_t cells = std::size_t{rows} * cols;
  const resilience::apps::RowBlock block{
      .lo = 0, .count = rows, .rows = rows, .cols = cols};
  std::vector<Real> u(cells), f(cells), next(cells), halo(cols, Real(0.0));
  for (std::size_t k = 0; k < cells; ++k) {
    u[k] = Real(0.5 + 0.001 * static_cast<double>(k));
    f[k] = Real(0.25 - 0.002 * static_cast<double>(k));
  }
  FaultContext ctx;
  ctx.reset();
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    resilience::apps::jacobi_sweep(block, u, f, halo, halo, 0.8, next);
    benchmark::DoNotOptimize(next.data());
    benchmark::ClobberMemory();
  }
  // 5 Add + 3 Mul + 1 Sub per cell.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells) * 9);
}

void BM_MgSmoothUnderContext(benchmark::State& state) {
  mg_smooth_under_context(state);
}
BENCHMARK(BM_MgSmoothUnderContext)->Repetitions(9);

/// The same sweep on the per-op reference path (quiet_ops is 0).
void BM_MgSmoothUnderContextReference(benchmark::State& state) {
  FastRealMode mode(false);
  mg_smooth_under_context(state);
}
BENCHMARK(BM_MgSmoothUnderContextReference)->Repetitions(9);

// Per-trial job launch latency: create one fiber per rank, run the empty
// body, join — all on the calling thread.
void BM_JobSpawnJoin(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto result = Runtime::run(ranks, [](Comm&) {});
    benchmark::DoNotOptimize(result.ok);
  }
}
BENCHMARK(BM_JobSpawnJoin)->Arg(2)->Arg(8)->Arg(32)->Arg(64);

// Fiber switch cost: two fibers ping-pong through park/unpark on one
// scheduler, so each handoff is a switch out to the run loop and a switch
// into the peer. Reports ns per switch (the job launch is amortised over
// kRounds handoffs per fiber).
void BM_FiberSwitch(benchmark::State& state) {
  using resilience::simmpi::FiberScheduler;
  namespace detail = resilience::simmpi::detail;
  constexpr int kRounds = 4096;
  std::int64_t switches = 0;
  for (auto _ : state) {
    FiberScheduler sched(2, detail::resolved_fiber_stack_bytes());
    detail::Fiber* fibers[2] = {nullptr, nullptr};
    sched.run([&](int rank) {
      fibers[rank] = FiberScheduler::current_fiber();
      detail::Fiber* const& peer = fibers[1 - rank];  // null until it runs
      for (int round = 0; round < kRounds; ++round) {
        if (peer != nullptr) sched.unpark(peer);
        sched.park();
      }
      sched.unpark(peer);
    });
    // Every resume is one switch in and one switch out; each fiber is
    // resumed once to start and once per park.
    switches += 2 * (2 * kRounds + 2);
  }
  // Seconds per switch; the console prints it with an SI prefix (ns).
  state.counters["per_switch"] = benchmark::Counter(
      static_cast<double>(switches),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FiberSwitch);

void BM_PingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t count = bytes / sizeof(double);
  std::uint64_t allocs = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const auto result = Runtime::run(2, [count](Comm& comm) {
      std::vector<double> buf(count, 1.0);
      for (int round = 0; round < 16; ++round) {
        if (comm.rank() == 0) {
          comm.send(1, 0, std::span<const double>(buf));
          comm.recv(1, 1, std::span<double>(buf));
        } else {
          comm.recv(0, 0, std::span<double>(buf));
          comm.send(0, 1, std::span<const double>(buf));
        }
      }
    });
    allocs += result.pool_allocs;
    messages += result.messages_sent;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32 *
                          static_cast<std::int64_t>(bytes));
  // The envelope-pool acceptance metric: payload allocations per message
  // (the seed allocated 1.0; the freelist drives it toward 1/messages).
  state.counters["allocs_per_msg"] =
      benchmark::Counter(static_cast<double>(allocs) /
                         static_cast<double>(messages ? messages : 1));
}
BENCHMARK(BM_PingPong)->Arg(64)->Arg(4096)->Arg(65536);

// ---- collectives (DESIGN.md §7) --------------------------------------------
// tools/merge_bench.py derives collective_speedup.<n>: the fused allreduce
// vs the same collective decomposed into mailbox messages (bar: >= 1.0x
// at every benched rank count).

void allreduce_rounds(Comm& comm) {
  double acc = 0.0;
  for (int round = 0; round < 16; ++round) {
    acc += comm.allreduce_value(1.0 + comm.rank());
  }
  benchmark::DoNotOptimize(acc);
}

/// Run `rounds` as one job per iteration, fused or on the mailbox.
void collective_rounds(benchmark::State& state, void (*rounds)(Comm&),
                       bool fused) {
  const int ranks = static_cast<int>(state.range(0));
  resilience::simmpi::detail::set_fused_collectives_enabled(fused);
  for (auto _ : state) {
    Runtime::run(ranks, rounds);
  }
  resilience::simmpi::detail::set_fused_collectives_enabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}

void BM_AllreduceRound(benchmark::State& state) {
  collective_rounds(state, allreduce_rounds, true);
}
BENCHMARK(BM_AllreduceRound)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

/// The reference decomposition: the same collective as mailbox p2p
/// messages along the binary tree.
void BM_AllreduceRoundMailbox(benchmark::State& state) {
  collective_rounds(state, allreduce_rounds, false);
}
BENCHMARK(BM_AllreduceRoundMailbox)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

/// 16 allgathers of an 8-double block per rank (CG's per-matvec pattern).
void allgather_rounds(Comm& comm) {
  const std::vector<double> mine(8, 1.0 + comm.rank());
  std::vector<double> all(mine.size() * static_cast<std::size_t>(comm.size()));
  for (int round = 0; round < 16; ++round) {
    comm.allgather(std::span<const double>(mine), std::span<double>(all));
  }
  benchmark::DoNotOptimize(all.data());
}

/// 16 alltoalls of 8-double blocks (FT's transpose pattern).
void alltoall_rounds(Comm& comm) {
  const auto n = 8 * static_cast<std::size_t>(comm.size());
  const std::vector<double> send(n, 1.0 + comm.rank());
  std::vector<double> recv(n);
  for (int round = 0; round < 16; ++round) {
    comm.alltoall(std::span<const double>(send), std::span<double>(recv));
  }
  benchmark::DoNotOptimize(recv.data());
}

void BM_AllgatherRound(benchmark::State& state) {
  collective_rounds(state, allgather_rounds, true);
}
BENCHMARK(BM_AllgatherRound)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_AllgatherRoundMailbox(benchmark::State& state) {
  collective_rounds(state, allgather_rounds, false);
}
BENCHMARK(BM_AllgatherRoundMailbox)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_AlltoallRound(benchmark::State& state) {
  collective_rounds(state, alltoall_rounds, true);
}
BENCHMARK(BM_AlltoallRound)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_AlltoallRoundMailbox(benchmark::State& state) {
  collective_rounds(state, alltoall_rounds, false);
}
BENCHMARK(BM_AlltoallRoundMailbox)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): default the JSON dump to
// BENCH_micro_substrate.json (tools/merge_bench.py folds it into
// BENCH_substrate.json) while keeping every --benchmark_* flag working.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro_substrate.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  // The stock library_build_type context field describes how the
  // google-benchmark *library* was compiled, not this binary; stamp the
  // binary's own optimization level so merge_bench.py can refuse
  // unoptimized dumps regardless of how the prebuilt library was built.
#ifdef __OPTIMIZE__
  benchmark::AddCustomContext("binary_build_type", "release");
#else
  benchmark::AddCustomContext("binary_build_type", "debug");
#endif
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
