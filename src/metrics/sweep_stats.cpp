#include "metrics/sweep_stats.hpp"

#include <cstdio>
#include <iterator>

namespace wormsim::metrics {

double SweepStats::points_per_second() const noexcept {
  return wall_seconds > 0.0 ? static_cast<double>(points) / wall_seconds
                            : 0.0;
}

double SweepStats::simulations_per_second() const noexcept {
  return wall_seconds > 0.0
             ? static_cast<double>(simulations) / wall_seconds
             : 0.0;
}

double SweepStats::cycles_per_second() const noexcept {
  return wall_seconds > 0.0
             ? static_cast<double>(sim_cycles) / wall_seconds
             : 0.0;
}

namespace {

/// Three significant digits with a k/M/G suffix: paper-scale points run
/// a few thousand cycles at a few thousand cycles/s, which fixed
/// "%.1fM"/"%.0fk" formats rounded to zero.
std::string si3(double v) {
  static constexpr const char* kSuffix[] = {"", "k", "M", "G", "T"};
  std::size_t i = 0;
  // 999.5 and not 1000: %.3g would print 999.7 as "1e+03".
  while (v >= 999.5 && i + 1 < std::size(kSuffix)) {
    v /= 1000.0;
    ++i;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g%s", v, kSuffix[i]);
  return buf;
}

}  // namespace

std::string SweepStats::summary() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%llu points (%llu sims, %s cycles) in %.2f s — "
                "%s points/s, %s cycles/s, jobs=%u",
                static_cast<unsigned long long>(points),
                static_cast<unsigned long long>(simulations),
                si3(static_cast<double>(sim_cycles)).c_str(), wall_seconds,
                si3(points_per_second()).c_str(),
                si3(cycles_per_second()).c_str(), jobs);
  return buf;
}

}  // namespace wormsim::metrics
