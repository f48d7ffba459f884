// Host-side timing helpers shared by the gated benches: process CPU
// time, a median, and the host fingerprint their JSON records carry.
#pragma once

#include <algorithm>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace wormsim::bench {

/// CPU seconds consumed by this process so far. The CPU-time gates
/// compare throughputs a few percent apart; on a shared CI vCPU, wall
/// clock carries multi-second preemption phases that dwarf the effect,
/// while process CPU time is immune to them (frequency drift remains,
/// which alternating the pair order cancels).
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Host fingerprint for a bench's config string: hardware threads, CPU
/// model, compiler and build type. Numbers from different fingerprints
/// are not comparable.
inline std::string host_fingerprint() {
  std::string model = "unknown CPU";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown compiler";
#endif
  return std::to_string(std::thread::hardware_concurrency()) +
         " hardware threads, " + model + ", " + compiler + ", " +
         WORMSIM_BUILD_TYPE;
}

}  // namespace wormsim::bench
