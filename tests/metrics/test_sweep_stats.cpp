#include "metrics/sweep_stats.hpp"

#include <gtest/gtest.h>

namespace wormsim::metrics {
namespace {

TEST(SweepStats, PaperScaleSinglePointPrintsNonZeroFigures) {
  // One paper-scale point: a few thousand cycles in about two seconds.
  SweepStats s;
  s.jobs = 1;
  s.points = 1;
  s.simulations = 1;
  s.sim_cycles = 3000;
  s.wall_seconds = 1.9;
  const std::string line = s.summary();
  EXPECT_NE(line.find("3k cycles)"), std::string::npos) << line;
  EXPECT_NE(line.find("1.58k cycles/s"), std::string::npos) << line;
  EXPECT_NE(line.find("0.526 points/s"), std::string::npos) << line;
  EXPECT_NE(line.find("in 1.90 s"), std::string::npos) << line;
  EXPECT_EQ(line.find("0.0M"), std::string::npos) << line;
  EXPECT_EQ(line.find(" 0k"), std::string::npos) << line;
}

TEST(SweepStats, LargeAndSmallFiguresKeepThreeDigits) {
  SweepStats s;
  s.jobs = 4;
  s.points = 28;
  s.simulations = 28;
  s.sim_cycles = 1234567;
  s.wall_seconds = 12.41;
  const std::string line = s.summary();
  EXPECT_NE(line.find("1.23M cycles)"), std::string::npos) << line;
  EXPECT_NE(line.find("99.5k cycles/s"), std::string::npos) << line;
  EXPECT_NE(line.find("jobs=4"), std::string::npos) << line;
  // No "1e+03": values that round up to 1000 move to the next suffix.
  s.sim_cycles = 999700;
  s.wall_seconds = 1000.0;
  EXPECT_EQ(s.summary().find("e+"), std::string::npos) << s.summary();
}

}  // namespace
}  // namespace wormsim::metrics
