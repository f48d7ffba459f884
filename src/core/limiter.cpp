#include "core/limiter.hpp"

#include <stdexcept>
#include <string>

#include "core/alo.hpp"
#include "core/dril.hpp"
#include "core/linear_function.hpp"

namespace wormsim::core {

namespace {

/// The "no restriction" baseline.
class NoLimiter final : public InjectionLimiter {
 public:
  bool allow(const InjectionRequest&, const ChannelStatus&) override {
    return true;
  }
  bool reads_route() const noexcept override { return false; }
  LimiterKind kind() const noexcept override { return LimiterKind::None; }
};

}  // namespace

LimiterKind parse_limiter(std::string_view name) {
  if (name == "none") return LimiterKind::None;
  if (name == "alo") return LimiterKind::ALO;
  if (name == "lf" || name == "linear") return LimiterKind::LF;
  if (name == "dril") return LimiterKind::DRIL;
  throw std::invalid_argument("unknown limiter: " + std::string(name));
}

std::string_view limiter_name(LimiterKind kind) {
  switch (kind) {
    case LimiterKind::None: return "none";
    case LimiterKind::ALO: return "alo";
    case LimiterKind::LF: return "lf";
    case LimiterKind::DRIL: return "dril";
  }
  return "unknown";
}

std::unique_ptr<InjectionLimiter> make_limiter(const LimiterConfig& cfg,
                                               NodeId num_nodes) {
  switch (cfg.kind) {
    case LimiterKind::None:
      return std::make_unique<NoLimiter>();
    case LimiterKind::ALO:
      return std::make_unique<AloLimiter>();
    case LimiterKind::LF:
      return std::make_unique<LinearFunctionLimiter>(cfg.lf_alpha);
    case LimiterKind::DRIL:
      return std::make_unique<DrilLimiter>(num_nodes, cfg.dril_detect_wait,
                                           cfg.dril_margin,
                                           cfg.dril_relax_period);
  }
  throw std::invalid_argument("unknown limiter kind");
}

}  // namespace wormsim::core
