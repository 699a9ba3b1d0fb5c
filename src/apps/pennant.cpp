#include "apps/pennant.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "apps/kernels.hpp"
#include "apps/trial_control.hpp"

namespace resilience::apps {

namespace {
constexpr int kZoneHaloTag = 800;
}

PennantApp::Config PennantApp::config_for_class(const std::string& size_class) {
  Config cfg;
  if (size_class.empty() || size_class == "leblanc") return cfg;
  throw std::invalid_argument("PENNANT: unknown size class " + size_class);
}

PennantApp::PennantApp(Config config, std::string size_class)
    : config_(config), size_class_(std::move(size_class)) {
  if (config_.zones < 2) throw std::invalid_argument("PENNANT: too few zones");
}

AppResult PennantApp::run(simmpi::Comm& comm) const {
  const int p = comm.size();
  const int rank = comm.rank();
  const auto& cfg = config_;
  const auto block = simmpi::block_partition(cfg.zones, p, rank);
  const int zlo = static_cast<int>(block.lo);
  const int nzones = static_cast<int>(block.count());
  const int nnodes = nzones + 1;  // nodes zlo .. zlo+nzones inclusive
  const int prev = (rank > 0) ? rank - 1 : -1;
  const int next = (rank + 1 < p) ? rank + 1 : -1;

  const Real gamma_m1(cfg.gamma - 1.0);
  const double dx0 = cfg.tube_length / cfg.zones;

  // ---- initial state (plain doubles; setup is uninstrumented) -----------
  std::vector<Real> x(static_cast<std::size_t>(nnodes));
  std::vector<Real> v(static_cast<std::size_t>(nnodes), Real(0.0));
  std::vector<Real> zm(static_cast<std::size_t>(nzones));   // zone mass
  std::vector<Real> rho(static_cast<std::size_t>(nzones));
  std::vector<Real> en(static_cast<std::size_t>(nzones));   // specific energy
  std::vector<Real> pr(static_cast<std::size_t>(nzones));
  std::vector<Real> qv(static_cast<std::size_t>(nzones), Real(0.0));

  for (int i = 0; i < nnodes; ++i) {
    x[static_cast<std::size_t>(i)] = Real((zlo + i) * dx0);
  }
  for (int i = 0; i < nzones; ++i) {
    const double center = (zlo + i + 0.5) * dx0;
    const bool left = center < cfg.interface;
    const double r0 = left ? cfg.rho_left : cfg.rho_right;
    const double p0 = left ? cfg.p_left : cfg.p_right;
    rho[static_cast<std::size_t>(i)] = Real(r0);
    pr[static_cast<std::size_t>(i)] = Real(p0);
    en[static_cast<std::size_t>(i)] = Real(p0 / ((cfg.gamma - 1.0) * r0));
    zm[static_cast<std::size_t>(i)] = Real(r0 * dx0);
  }
  // Node masses: half the adjacent zone masses; end-node halves come from
  // the neighbour's boundary zone (constant, exchanged once).
  Real mass_from_prev(0.0), mass_from_next(0.0);
  if (p > 1) {
    exchange_halo_rows(comm, kZoneHaloTag,
                       std::span<const Real>(&zm.front(), 1),
                       std::span<const Real>(&zm.back(), 1),
                       std::span<Real>(&mass_from_prev, 1),
                       std::span<Real>(&mass_from_next, 1), prev, next);
  }
  std::vector<Real> nm(static_cast<std::size_t>(nnodes));
  for (int i = 0; i < nnodes; ++i) {
    const Real left_mass =
        (i > 0) ? zm[static_cast<std::size_t>(i - 1)]
                : (zlo > 0 ? mass_from_prev : Real(0.0));
    const Real right_mass =
        (i < nzones) ? zm[static_cast<std::size_t>(i)]
                     : (zlo + nzones < cfg.zones ? mass_from_next : Real(0.0));
    nm[static_cast<std::size_t>(i)] = Real(0.5) * (left_mass + right_mass);
  }

  // ---- time-step loop ----------------------------------------------------
  // Simulation time is tracked as a plain double fed by the *broadcast* dt
  // value, so every rank always agrees on the loop trip count — a corrupted
  // local accumulation of t would otherwise deadlock the halo exchanges.
  double t = 0.0;
  int step = 0;
  std::vector<Real> ptot(static_cast<std::size_t>(nzones));  // P + q

  // Boundary hook (DESIGN.md §9): live state across cycles is the node and
  // zone fields plus simulation time. qv and ptot are fully recomputed each
  // cycle; zm is fixed and written with uninstrumented constructors; nm is
  // fixed too but was *computed* with instrumented ops, so it is corruptible
  // and must be part of the digest/checkpoint.
  TrialControl* ctl = current_trial_control();
  auto views = [&] {
    return std::array<StateView, 7>{
        StateView::reals(x),  StateView::reals(v),  StateView::reals(rho),
        StateView::reals(en), StateView::reals(pr), StateView::reals(nm),
        StateView::scalar(t)};
  };
  if (ctl != nullptr) {
    const auto vw = views();
    step = ctl->begin(vw);
  }

  // The per-step loops run as cells of run_cells (apps/kernels.hpp). In
  // their divergence scans, zone cells [b, e) read nodes [b, e + 1).
  const auto nz = static_cast<std::size_t>(nzones);
  const auto nn = static_cast<std::size_t>(nnodes);

  for (; step < cfg.max_steps && t < cfg.t_final * (1.0 - 1e-12); ++step) {
    // Artificial viscosity from the current velocity field (local): 1 Sub,
    // or 10 ops on the compression branch.
    run_cells(
        nz, nzones, 10,
        [&](auto arith, CellPos at) {
          using T = typename decltype(arith)::type;
          const std::size_t i = at.c;
          const T dv = T(v[i + 1]) - T(v[i]);
          if (dv < T(0.0)) {
            const T c = sqrt(T(cfg.gamma) * T(pr[i]) / T(rho[i]));
            qv[i] = static_cast<Real>(
                T(rho[i]) *
                (T(cfg.q2) * dv * dv + T(cfg.q1) * c * abs(dv)));
            return CellOps{.add = 1, .sub = 1, .mul = 6, .div = 1, .sqrt = 1};
          }
          qv[i] = Real(0.0);
          return CellOps{.sub = 1};
        },
        [&](std::size_t b, std::size_t e) {
          return diverged_bits(v, b, e + 1) | diverged_bits(pr, b, e) |
                 diverged_bits(rho, b, e);
        });

    // CFL-limited global time step (the per-cycle collective).
    Real dt_local(1e30);
    run_cells(
        nz, nzones, 9,
        [&](auto arith, CellPos at) {
          using T = typename decltype(arith)::type;
          const std::size_t i = at.c;
          const T dx = T(x[i + 1]) - T(x[i]);
          const T c = sqrt(T(cfg.gamma) * T(pr[i]) / T(rho[i]));
          const T dv = abs(T(v[i + 1]) - T(v[i]));
          dt_local = static_cast<Real>(
              min(T(dt_local), T(cfg.cfl) * dx / (c + dv + T(1e-30))));
          return CellOps{.add = 2, .sub = 2, .mul = 2, .div = 2, .sqrt = 1};
        },
        [&](std::size_t b, std::size_t e) {
          return diverged_bits(dt_local) | diverged_bits(x, b, e + 1) |
                 diverged_bits(v, b, e + 1) | diverged_bits(pr, b, e) |
                 diverged_bits(rho, b, e);
        });
    Real dt = comm.allreduce_value(dt_local, simmpi::Min{});
    dt = min(dt, Real(cfg.t_final - t));
    if (!isfinite(dt) || dt <= Real(0.0)) {
      throw NumericalError("PENNANT time step became invalid");
    }

    // Exchange boundary-zone total pressure with the neighbours.
    run_cells(
        nz, nzones, 1,
        [&](auto arith, CellPos at) {
          using T = typename decltype(arith)::type;
          ptot[at.c] = static_cast<Real>(T(pr[at.c]) + T(qv[at.c]));
          return CellOps{.add = 1};
        },
        [&](std::size_t b, std::size_t e) {
          return diverged_bits(pr, b, e) | diverged_bits(qv, b, e);
        });
    Real ptot_prev(0.0), ptot_next(0.0);
    if (p > 1) {
      exchange_halo_rows(comm, kZoneHaloTag + 1 + step,
                         std::span<const Real>(&ptot.front(), 1),
                         std::span<const Real>(&ptot.back(), 1),
                         std::span<Real>(&ptot_prev, 1),
                         std::span<Real>(&ptot_next, 1), prev, next);
    }

    // Node accelerations and positions. Wall boundary: end nodes pinned.
    run_cells(
        nn, nnodes, 4,
        [&](auto arith, CellPos at) {
          using T = typename decltype(arith)::type;
          const std::size_t i = at.c;
          const int g = zlo + static_cast<int>(i);
          if (g == 0 || g == cfg.zones) {
            v[i] = Real(0.0);
            return CellOps{};
          }
          const T p_left_zone = (i > 0) ? T(ptot[i - 1]) : T(ptot_prev);
          const T p_right_zone = (i < nz) ? T(ptot[i]) : T(ptot_next);
          const T force = p_left_zone - p_right_zone;
          T vi = T(v[i]);
          vi += T(dt) * force / T(nm[i]);
          v[i] = static_cast<Real>(vi);
          return CellOps{.add = 1, .sub = 1, .mul = 1, .div = 1};
        },
        [&](std::size_t b, std::size_t e) {
          // Node i reads zones i - 1 and i.
          return diverged_bits(dt) | diverged_bits(ptot_prev) |
                 diverged_bits(ptot_next) |
                 diverged_bits(ptot, b > 0 ? b - 1 : 0, std::min(e, nz)) |
                 diverged_bits(nm, b, e) | diverged_bits(v, b, e);
        });
    run_cells(
        nn, nnodes, 2,
        [&](auto arith, CellPos at) {
          using T = typename decltype(arith)::type;
          T xi = T(x[at.c]);
          xi += T(dt) * T(v[at.c]);
          x[at.c] = static_cast<Real>(xi);
          return CellOps{.add = 1, .mul = 1};
        },
        [&](std::size_t b, std::size_t e) {
          return diverged_bits(dt) | diverged_bits(x, b, e) |
                 diverged_bits(v, b, e);
        });

    // Zone updates: compression work and equation of state. A cell
    // commits rho, en and pr only after both checks pass.
    run_cells(
        nz, nzones, 9,
        [&](auto arith, CellPos at) {
          using T = typename decltype(arith)::type;
          const std::size_t i = at.c;
          const T dx = T(x[i + 1]) - T(x[i]);
          if (!(dx > T(0.0))) {
            throw NumericalError(
                "PENNANT mesh tangled (non-positive zone length)");
          }
          const T rho_i = T(zm[i]) / dx;
          const T dv = T(v[i + 1]) - T(v[i]);
          T en_i = T(en[i]);
          en_i -= T(dt) * T(ptot[i]) * dv / T(zm[i]);
          if (!(en_i > T(0.0)) || !isfinite(en_i)) {
            throw NumericalError("PENNANT energy became invalid");
          }
          rho[i] = static_cast<Real>(rho_i);
          en[i] = static_cast<Real>(en_i);
          pr[i] = static_cast<Real>(T(gamma_m1) * rho_i * en_i);
          return CellOps{.sub = 3, .mul = 4, .div = 2};
        },
        [&](std::size_t b, std::size_t e) {
          return diverged_bits(dt) | diverged_bits(x, b, e + 1) |
                 diverged_bits(v, b, e + 1) | diverged_bits(zm, b, e) |
                 diverged_bits(ptot, b, e) | diverged_bits(en, b, e);
        });
    t += dt.value();

    if (ctl != nullptr) {
      const auto vw = views();
      if (!ctl->boundary(comm, step, vw)) return {};
    }
  }

  if (t < cfg.t_final * (1.0 - 1e-9)) {
    // The step budget ran out before reaching the end time: the analogue of
    // a hung job whose dt collapsed.
    throw NumericalError("PENNANT exceeded the step budget before t_final");
  }

  // ---- conserved-quantity signature --------------------------------------
  // Each rank owns nodes [zlo, zlo+nzones), the last rank also the end node.
  Real e_local(0.0), mom_local(0.0);
  for (int i = 0; i < nzones; ++i) {
    e_local += zm[static_cast<std::size_t>(i)] * en[static_cast<std::size_t>(i)];
  }
  const int owned_nodes = nzones + ((zlo + nzones == cfg.zones) ? 1 : 0);
  for (int i = 0; i < owned_nodes; ++i) {
    const Real vi = v[static_cast<std::size_t>(i)];
    e_local += Real(0.5) * nm[static_cast<std::size_t>(i)] * vi * vi;
    mom_local += nm[static_cast<std::size_t>(i)] * vi;
  }
  const Real e_total = comm.allreduce_value(e_local, simmpi::Sum{});
  const Real mom_total = comm.allreduce_value(mom_local, simmpi::Sum{});
  guard_finite(e_total, "PENNANT total energy");

  AppResult result;
  result.iterations = step;
  result.signature = {e_total.value(), mom_total.value()};
  return result;
}

}  // namespace resilience::apps
