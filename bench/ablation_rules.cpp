// Ablation: the two ALO rules in isolation.
//
// The paper's Figure 2 argues rule (b) ("some useful channel completely
// free") alone is a worse congestion indicator, and that (a OR b)
// improves on rule (a) alone by not blocking injection when one useful
// channel is busy while another is totally idle. This bench runs
// rule-a-only, rule-b-only and full ALO side by side (plus None as the
// reference) and prints the usual sweep columns.
#include <memory>
#include <mutex>
#include <vector>

#include "core/alo.hpp"
#include "fig_common.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace wormsim;

namespace {

enum class RuleSet { AOnly, BOnly, Both };

class RuleAblationLimiter final : public core::InjectionLimiter {
 public:
  explicit RuleAblationLimiter(RuleSet rules) : rules_(rules) {}

  bool allow(const core::InjectionRequest& req,
             const core::ChannelStatus& status) override {
    const auto cond =
        core::evaluate_alo(status.free_row(req.node), status.num_vcs(),
                           req.route->useful_phys_mask);
    switch (rules_) {
      case RuleSet::AOnly: return cond.all_useful_partially_free;
      case RuleSet::BOnly: return cond.any_useful_completely_free ||
                                  req.route->useful_phys_mask == 0;
      case RuleSet::Both: return cond.allow();
    }
    return true;
  }
  core::LimiterKind kind() const noexcept override {
    return core::LimiterKind::ALO;
  }

 private:
  RuleSet rules_;
};

metrics::SimResult run_point(const config::SimConfig& cfg,
                             const char* variant) {
  const topo::KAryNCube topo(cfg.k, cfg.n);
  auto workload =
      std::make_unique<traffic::Workload>(topo, cfg.workload, cfg.seed);
  sim::Simulator sim(topo, cfg.sim, std::move(workload));
  const std::string v(variant);
  if (v == "rule-a") {
    sim.set_limiter(std::make_unique<RuleAblationLimiter>(RuleSet::AOnly));
  } else if (v == "rule-b") {
    sim.set_limiter(std::make_unique<RuleAblationLimiter>(RuleSet::BOnly));
  } else if (v == "alo") {
    sim.set_limiter(std::make_unique<RuleAblationLimiter>(RuleSet::Both));
  }  // "none": keep the default no-limit mechanism
  return sim.run(cfg.protocol);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    bench::FigureSpec spec;
    spec.figure = "Ablation: ALO rules";
    spec.expectation =
        "rule (a) alone over-throttles once any useful channel fills; "
        "rule (b) alone under-throttles; (a OR b) = ALO dominates both";
    config::SimConfig base = bench::figure_base(spec, args);

    const auto loads = harness::load_range_flags(args, 0.3, 1.2, 5);
    const unsigned jobs = harness::jobs_flag(args);
    harness::reject_unknown_flags(args);

    std::cout << "# Ablation — ALO rule decomposition, uniform 16-flit\n";
    std::cout << "# expectation: " << spec.expectation << "\n";
    std::cout << harness::describe(base) << "\n";
    util::CsvWriter csv(std::cout);
    csv.header({"variant", "offered_flits_node_cycle", "latency_avg_cycles",
                "accepted_flits_node_cycle", "deadlock_pct",
                "avg_queue_len"});

    // Flatten the variant × load grid and run the points on the shared
    // thread pool; slots are indexed by grid position (which also fixes
    // each point's RNG stream), so rows print in the serial order for
    // any --jobs value.
    struct Cell {
      const char* variant;
      double offered;
    };
    std::vector<Cell> grid;
    for (const char* variant : {"none", "rule-a", "rule-b", "alo"}) {
      for (const double offered : loads) grid.push_back({variant, offered});
    }
    std::vector<metrics::SimResult> results(grid.size());
    std::mutex progress_mu;
    util::parallel_for(
        grid.size(), jobs, [&](std::size_t i) {
          config::SimConfig cfg = base;
          cfg.workload.offered_flits_per_node_cycle = grid[i].offered;
          cfg.seed = util::derive_stream_seed(base.seed, i);
          results[i] = run_point(cfg, grid[i].variant);
          const std::lock_guard<std::mutex> lock(progress_mu);
          obs::logf(obs::LogLevel::Info, "  [%s @ %.3f] accepted=%.3f latency=%.1f\n",
                       grid[i].variant, grid[i].offered,
                       results[i].accepted_flits_per_node_cycle,
                       results[i].latency_mean);
        });
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& r = results[i];
      csv.row(grid[i].variant, grid[i].offered, r.latency_mean,
              r.accepted_flits_per_node_cycle, r.deadlock_pct,
              r.avg_queue_len);
    }
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
