#include <algorithm>
#include <cctype>

#include "apps/app.hpp"
#include "apps/cg.hpp"
#include "apps/ft.hpp"
#include "apps/lu.hpp"
#include "apps/mg.hpp"
#include "apps/minife.hpp"
#include "apps/pennant.hpp"
#include "apps/trial_control.hpp"
#include "util/fiber_tls.hpp"

namespace resilience::apps {

namespace {

// Trial control (checkpoint/early-exit hooks) is installed per rank; it
// must follow the rank's fiber like every other per-rank thread-local.
[[maybe_unused]] const std::size_t g_trial_control_tls_slot =
    util::FiberTlsRegistry::add({
        []() noexcept -> void* { return detail::tl_trial_control; },
        [](void* v) noexcept {
          detail::tl_trial_control = static_cast<TrialControl*>(v);
        },
    });

}  // namespace

const std::vector<AppId>& all_app_ids() {
  static const std::vector<AppId> ids = {AppId::CG,     AppId::FT,
                                         AppId::MG,     AppId::LU,
                                         AppId::MiniFE, AppId::PENNANT};
  return ids;
}

std::unique_ptr<App> make_app(AppId id, const std::string& size_class) {
  switch (id) {
    case AppId::CG: {
      const std::string cls = size_class.empty() ? "S" : size_class;
      return std::make_unique<CgApp>(CgApp::config_for_class(cls), cls);
    }
    case AppId::FT: {
      const std::string cls = size_class.empty() ? "S" : size_class;
      return std::make_unique<FtApp>(FtApp::config_for_class(cls), cls);
    }
    case AppId::MG: {
      const std::string cls = size_class.empty() ? "S" : size_class;
      return std::make_unique<MgApp>(MgApp::config_for_class(cls), cls);
    }
    case AppId::LU: {
      const std::string cls = size_class.empty() ? "W" : size_class;
      return std::make_unique<LuApp>(LuApp::config_for_class(cls), cls);
    }
    case AppId::MiniFE: {
      const std::string cls = size_class.empty() ? "S" : size_class;
      return std::make_unique<MiniFeApp>(MiniFeApp::config_for_class(cls), cls);
    }
    case AppId::PENNANT: {
      const std::string cls = size_class.empty() ? "leblanc" : size_class;
      return std::make_unique<PennantApp>(PennantApp::config_for_class(cls),
                                          cls);
    }
  }
  throw std::invalid_argument("make_app: unknown AppId");
}

AppId parse_app_id(const std::string& name) {
  std::string upper(name);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (upper == "CG") return AppId::CG;
  if (upper == "FT") return AppId::FT;
  if (upper == "MG") return AppId::MG;
  if (upper == "LU") return AppId::LU;
  if (upper == "MINIFE") return AppId::MiniFE;
  if (upper == "PENNANT") return AppId::PENNANT;
  throw std::invalid_argument("parse_app_id: unknown app " + name);
}

}  // namespace resilience::apps
