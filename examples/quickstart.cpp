// Quickstart: inject faults into one benchmark and read the results.
//
// Runs a small fault-injection campaign against the CG benchmark at 8 MPI
// (simulated) ranks, prints the fault-injection result (Success/SDC/
// Failure rates), and the error-propagation histogram across ranks.
//
//   ./quickstart [app] [ranks] [trials]
//
// e.g. `./quickstart FT 8 200`.
#include <cstdlib>
#include <iostream>

#include "resilience.hpp"

int main(int argc, char** argv) {
  using namespace resilience;

  const std::string app_name = (argc > 1) ? argv[1] : "CG";
  const int ranks = (argc > 2) ? std::atoi(argv[2]) : 8;
  const std::size_t trials = (argc > 3) ? std::strtoull(argv[3], nullptr, 10) : 200;

  const auto app = apps::make_app(apps::parse_app_id(app_name));
  if (!app->supports(ranks)) {
    std::cerr << app->label() << " does not support " << ranks << " ranks\n";
    return 1;
  }

  std::cout << "Fault-injection campaign: " << app->label() << " on " << ranks
            << " ranks, " << trials << " trials\n"
            << "(single-bit flips in FP add/mul operands, as in the paper)\n\n";

  harness::DeploymentConfig dep;
  dep.nranks = ranks;
  dep.trials = trials;
  const auto campaign = harness::CampaignRunner::run(*app, dep);

  std::cout << "Golden signature:";
  for (double v : campaign.golden.signature) std::cout << ' ' << v;
  std::cout << "\nDynamic FP ops (max rank): " << campaign.golden.max_rank_ops
            << "\nParallel-unique op fraction: "
            << util::TablePrinter::pct(campaign.golden.unique_fraction(), 2)
            << "\n\n";

  util::TablePrinter outcomes({"Outcome", "Tests", "Rate", "95% CI"});
  const auto row = [&](const char* name, std::size_t count) {
    const auto ci = util::wilson_interval(count, campaign.overall.trials);
    // Appended, not `"[" + ...`: GCC 12's -O3 inlining of the
    // operator+ overloads that insert into their right operand raises a
    // bogus -Wrestrict.
    std::string interval("[");
    interval += util::TablePrinter::pct(ci.lo);
    interval += ", ";
    interval += util::TablePrinter::pct(ci.hi);
    interval += "]";
    outcomes.add_row({name, std::to_string(count),
                      util::TablePrinter::pct(ci.center), interval});
  };
  row("Success", campaign.overall.success);
  row("SDC", campaign.overall.sdc);
  row("Failure", campaign.overall.failure);
  outcomes.print();

  std::cout << "\nError propagation (ranks contaminated per test):\n";
  util::TablePrinter prop({"#ranks", "tests", "r_x"});
  const auto r = campaign.propagation_probabilities();
  for (int x = 1; x <= ranks; ++x) {
    const std::size_t count =
        campaign.contamination_hist[static_cast<std::size_t>(x)];
    if (count == 0) continue;
    prop.add_row({std::to_string(x), std::to_string(count),
                  util::TablePrinter::pct(r[static_cast<std::size_t>(x - 1)])});
  }
  prop.print();

  std::cout << "\nFault-injection wall time: " << campaign.wall_seconds
            << " s\n";
  return 0;
}
