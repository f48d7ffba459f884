// End-to-end validation of the machine-readable telemetry surface: a
// FAST-sized sweep with a tracer attached must emit one schema-valid
// JSONL record per sweep point plus a summary, the records must be
// deterministic for a fixed seed across --jobs counts (modulo the
// quarantined "perf"/"trace" sections), the Chrome trace export must be
// valid JSON, and the spatial capture must produce parseable CSVs.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "config/presets.hpp"
#include "harness/sweep.hpp"
#include "harness/telemetry.hpp"
#include "obs/tracer.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace wormsim::harness {
namespace {

config::SimConfig telemetry_base() {
  config::SimConfig cfg = config::small_base();
  cfg.protocol.warmup = 200;
  cfg.protocol.measure = 400;
  cfg.protocol.drain_max = 600;
  cfg.seed = 0x0B5E11E7;
  return cfg;
}

SweepSpec telemetry_spec(unsigned jobs, obs::Tracer* tracer) {
  SweepSpec spec;
  spec.base = telemetry_base();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  spec.offered_loads = {0.1, 0.6, 1.2};
  spec.jobs = jobs;
  spec.tracer = tracer;
  return spec;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Telemetry text for one full sweep (runs the simulations).
std::string run_and_serialize(unsigned jobs) {
  obs::Tracer tracer(1u << 10);
  SweepSpec spec = telemetry_spec(jobs, &tracer);
  metrics::SweepStats stats;
  spec.stats = &stats;
  const auto points = run_sweep(spec);
  std::ostringstream os;
  write_sweep_telemetry(os, spec, points, &stats);
  return os.str();
}

TEST(Telemetry, OneSchemaValidRecordPerPointPlusSummary) {
  obs::Tracer tracer(1u << 12);
  SweepSpec spec = telemetry_spec(1, &tracer);
  metrics::SweepStats stats;
  spec.stats = &stats;
  const auto points = run_sweep(spec);
  ASSERT_EQ(points.size(), 6u);

  std::ostringstream os;
  write_sweep_telemetry(os, spec, points, &stats);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), points.size() + 1);

  for (std::size_t i = 0; i < points.size(); ++i) {
    std::string err;
    const auto rec = util::json_parse(lines[i], &err);
    ASSERT_TRUE(rec.has_value()) << "line " << i << ": " << err;
    ASSERT_TRUE(rec->is_object());
    EXPECT_EQ(rec->find("schema")->str, kTelemetrySchema);
    EXPECT_EQ(rec->find("kind")->str, "point");
    EXPECT_DOUBLE_EQ(rec->find("point")->number, static_cast<double>(i));
    EXPECT_EQ(rec->find("mechanism")->str,
              core::limiter_name(points[i].limiter));
    EXPECT_DOUBLE_EQ(rec->find("offered")->number, points[i].offered);
    // Config echo carries the per-point derived seed, not the base seed.
    EXPECT_DOUBLE_EQ(
        rec->at_path("config.seed")->number,
        static_cast<double>(util::derive_stream_seed(spec.base.seed, i)));
    EXPECT_EQ(rec->at_path("config.k")->number, spec.base.k);
    // Result section mirrors the SimResult for this point.
    EXPECT_DOUBLE_EQ(rec->at_path("result.total_cycles")->number,
                     static_cast<double>(points[i].result.total_cycles));
    EXPECT_DOUBLE_EQ(rec->at_path("result.accepted_flits_per_node_cycle")
                         ->number,
                     points[i].result.accepted_flits_per_node_cycle);
    EXPECT_EQ(rec->at_path("result.saturated")->boolean,
              points[i].result.saturated);
    // Wall-clock-dependent fields live only under "perf".
    ASSERT_NE(rec->find("perf"), nullptr);
    EXPECT_NE(rec->at_path("perf.cycles_per_second"), nullptr);
    EXPECT_NE(rec->at_path("perf.wall_seconds"), nullptr);
  }

  std::string err;
  const auto summary = util::json_parse(lines.back(), &err);
  ASSERT_TRUE(summary.has_value()) << err;
  EXPECT_EQ(summary->find("kind")->str, "summary");
  EXPECT_EQ(summary->find("schema")->str, kTelemetrySchema);
  EXPECT_DOUBLE_EQ(summary->find("points")->number, 6.0);
  EXPECT_DOUBLE_EQ(summary->find("simulations")->number, 6.0);
  EXPECT_GT(summary->find("sim_cycles")->number, 0.0);
  // The tracer was attached, so drop accounting must be present.
  ASSERT_NE(summary->find("trace"), nullptr);
  EXPECT_GT(summary->at_path("trace.events_recorded")->number, 0.0);
}

TEST(Telemetry, DeterministicAcrossJobCounts) {
  const auto strip_volatile = [](std::string line) {
    // "perf" (and in the summary, the jobs-dependent "trace" block that
    // follows it) is always the record's tail; everything before it is
    // the reproducible part...
    const std::size_t pos = line.find(",\"perf\":");
    if (pos != std::string::npos) line.resize(pos);
    // ...except the summary's worker-count echo, which differs by
    // construction here.
    const std::size_t jobs = line.find("\"jobs\":");
    if (jobs != std::string::npos) {
      std::size_t end = jobs + 7;
      while (end < line.size() &&
             std::isdigit(static_cast<unsigned char>(line[end]))) {
        ++end;
      }
      line.erase(jobs, end - jobs);
    }
    return line;
  };
  const auto serial = lines_of(run_and_serialize(1));
  const auto parallel = lines_of(run_and_serialize(2));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(strip_volatile(serial[i]), strip_volatile(parallel[i]))
        << "record " << i;
  }
}

TEST(Telemetry, SweepCsvUnchangedByInstrumentation) {
  metrics::SweepStats stats;
  SweepSpec plain = telemetry_spec(2, nullptr);
  const auto base_points = run_sweep(plain);

  obs::Tracer tracer(1u << 10);
  SweepSpec traced = telemetry_spec(2, &tracer);
  traced.stats = &stats;
  const auto traced_points = run_sweep(traced);
  EXPECT_GT(tracer.events_recorded(), 0u);

  std::ostringstream plain_csv;
  write_sweep_csv(plain_csv, base_points);
  std::ostringstream traced_csv;
  write_sweep_csv(traced_csv, traced_points);
  EXPECT_EQ(plain_csv.str(), traced_csv.str());
}

TEST(Telemetry, ChromeTraceFromSweepIsValidJson) {
  obs::Tracer tracer(1u << 12);
  SweepSpec spec = telemetry_spec(1, &tracer);
  run_sweep(spec);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  std::string err;
  const auto doc = util::json_parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const util::JsonValue* events = doc->find("traceEvents");
  ASSERT_TRUE(events && events->is_array());
  EXPECT_FALSE(events->array.empty());
  EXPECT_EQ(doc->at_path("otherData.schema")->str, "wormsim.trace/1");
}

TEST(Telemetry, CaptureSpatialWritesParseableCsvs) {
  const std::string prefix = ::testing::TempDir() + "wormsim_spatial_test";
  config::SimConfig base = telemetry_base();
  capture_spatial(base, core::LimiterKind::ALO, 1.2, prefix);

  const topo::KAryNCube topo(base.k, base.n);
  const struct {
    const char* suffix;
    const char* header;
    std::size_t rows;
  } tables[] = {
      {"_channels.csv",
       "link,src,dst,dim,dir,src_x,src_y,flits_carried,utilization,"
       "mean_busy_vcs",
       static_cast<std::size_t>(topo.num_links())},
      {"_nodes.csv",
       "node,x,y,coords,injected_msgs,ejected_flits,ejected_flits_per_cycle,"
       "queue_avg,queue_max",
       topo.num_nodes()},
      {"_vc_occupancy.csv", "link,src,dst,dim,dir,busy_vcs,samples",
       static_cast<std::size_t>(topo.num_links()) *
           (base.sim.net.num_vcs + 1)},
  };
  for (const auto& t : tables) {
    const std::string path = prefix + t.suffix;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header, t.header) << path;
    std::size_t rows = 0;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) ++rows;
    }
    EXPECT_EQ(rows, t.rows) << path;
    in.close();
    std::remove(path.c_str());
  }
}

TEST(Telemetry, ShardCountReportsThePathThatRan) {
  // 4-ary 4-cube: 256 nodes = four 64-node bitmap words, so four
  // shards survive the simulator's clamp.
  config::SimConfig cfg = telemetry_base();
  cfg.k = 4;
  cfg.n = 4;
  cfg.protocol.warmup = 50;
  cfg.protocol.measure = 100;
  cfg.protocol.drain_max = 0;
  cfg.sim.shards = 4;
  cfg.sim.limiter.kind = core::LimiterKind::ALO;
  cfg.workload.offered_flits_per_node_cycle = 0.6;

  // Untraced: the sharded path runs with every requested shard.
  EXPECT_EQ(config::run_experiment(cfg).shards, 4u);

  // A tracer forces the sequential path, so the record must say 1 even
  // though the config asked for 4.
  obs::Tracer tracer(1u << 10);
  config::RunHooks hooks;
  hooks.tracer = &tracer;
  SweepSpec spec;
  spec.base = cfg;
  spec.tracer = &tracer;
  const std::vector<SweepPoint> points = {
      {core::LimiterKind::ALO, 0.6, config::run_experiment(cfg, hooks), {}}};
  EXPECT_EQ(points[0].result.shards, 1u);
  std::ostringstream os;
  write_sweep_telemetry(os, spec, points, nullptr);
  std::string err;
  const auto rec = util::json_parse(lines_of(os.str()).front(), &err);
  ASSERT_TRUE(rec.has_value()) << err;
  ASSERT_NE(rec->at_path("perf.shards.count"), nullptr);
  EXPECT_DOUBLE_EQ(rec->at_path("perf.shards.count")->number, 1.0);
}

TEST(UnknownFlags, NamedAndRejectedWithStatus2) {
  const char* const argv[] = {"fig05_uniform16", "--shardz", "4", "--jobs",
                              "2", "--warmpu=10"};
  const util::ArgParser args(6, argv);
  EXPECT_EQ(jobs_flag(args), 2u);
  EXPECT_EXIT(reject_unknown_flags(args), ::testing::ExitedWithCode(2),
              "unknown flag\\(s\\): --shardz --warmpu");
}

TEST(UnknownFlags, AllConsumedPasses) {
  const char* const argv[] = {"quickstart", "--offered", "0.5", "--seed=3"};
  const util::ArgParser args(4, argv);
  config::SimConfig cfg = config::small_base();
  apply_common_flags(cfg, args);
  EXPECT_DOUBLE_EQ(args.get_double("offered", 0.1), 0.5);
  reject_unknown_flags(args);  // returns instead of exiting
  EXPECT_EQ(cfg.seed, 3u);
}

// Malformed sweep ranges and window widths fail at the CLI edge with
// status 2 and the offending flag named, before anything runs.
TEST(LoadRangeFlags, ZeroPointsRejectedWithStatus2) {
  const char* const argv[] = {"fig05_uniform16", "--loads", "0"};
  const util::ArgParser args(3, argv);
  EXPECT_EXIT(load_range_flags(args, 0.1, 1.2, 7),
              ::testing::ExitedWithCode(2), "--loads must be at least 1");
}

TEST(LoadRangeFlags, InvertedRangeRejectedWithStatus2) {
  const char* const argv[] = {"fig05_uniform16", "--min-load", "0.2",
                              "--max-load", "0.1"};
  const util::ArgParser args(5, argv);
  EXPECT_EXIT(load_range_flags(args, 0.1, 1.2, 7),
              ::testing::ExitedWithCode(2),
              "--min-load must not exceed --max-load");
}

TEST(LoadRangeFlags, NegativeLoadRejectedWithStatus2) {
  const char* const low[] = {"fig05_uniform16", "--min-load", "-0.1"};
  EXPECT_EXIT(load_range_flags(util::ArgParser(3, low), 0.1, 1.2, 7),
              ::testing::ExitedWithCode(2), "--min-load must be a load >= 0");
  const char* const high[] = {"fig05_uniform16", "--min-load=-0.3",
                              "--max-load=-0.1"};
  EXPECT_EXIT(load_range_flags(util::ArgParser(3, high), 0.1, 1.2, 7),
              ::testing::ExitedWithCode(2), "--min-load must be a load >= 0");
  // A default range that would invert is rejected the same way.
  const char* const max_only[] = {"fig05_uniform16", "--max-load", "0.05"};
  EXPECT_EXIT(load_range_flags(util::ArgParser(3, max_only), 0.1, 1.2, 7),
              ::testing::ExitedWithCode(2),
              "--min-load must not exceed --max-load");
}

TEST(LoadRangeFlags, ValidRangeMatchesLoadRangeAndConsumesFlags) {
  const char* const argv[] = {"fig05_uniform16", "--min-load", "0.2",
                              "--max-load=0.6", "--loads", "3"};
  const util::ArgParser args(6, argv);
  EXPECT_EQ(load_range_flags(args, 0.1, 1.2, 7), load_range(0.2, 0.6, 3));
  reject_unknown_flags(args);  // returns: every flag was consumed
  // Defaults apply to absent flags; a single point and a degenerate
  // range are both valid.
  const char* const bare[] = {"fig05_uniform16", "--loads=1"};
  EXPECT_EQ(load_range_flags(util::ArgParser(2, bare), 0.4, 0.4, 7),
            std::vector<double>{0.4});
}

TEST(ObsSessionFlags, ZeroOnlineWindowRejectedWithStatus2) {
  const char* const argv[] = {"fig05_uniform16", "--metrics-out",
                              "unused.jsonl", "--online-window", "0"};
  const util::ArgParser args(5, argv);
  EXPECT_EXIT(ObsSession session(args), ::testing::ExitedWithCode(2),
              "--online-window must be at least 1 cycle");
}

// --profile takes a positive period or nothing (64). Zero, a sign or a
// word is a typo, never a request to switch profiling off, so each one
// exits 2 naming the flag.
TEST(ObsSessionFlags, ZeroProfilePeriodRejectedWithStatus2) {
  const char* const argv[] = {"fig05_uniform16", "--profile", "0"};
  EXPECT_EXIT(ObsSession session(util::ArgParser(3, argv)),
              ::testing::ExitedWithCode(2),
              "--profile expects a positive cycle period");
}

TEST(ObsSessionFlags, NegativeProfilePeriodRejectedWithStatus2) {
  const char* const argv[] = {"fig05_uniform16", "--profile", "-3"};
  EXPECT_EXIT(ObsSession session(util::ArgParser(3, argv)),
              ::testing::ExitedWithCode(2),
              "--profile expects a positive cycle period");
}

TEST(ObsSessionFlags, NonNumericProfilePeriodRejectedWithStatus2) {
  const char* const argv[] = {"fig05_uniform16", "--profile", "abc"};
  EXPECT_EXIT(ObsSession session(util::ArgParser(3, argv)),
              ::testing::ExitedWithCode(2),
              "--profile expects a positive cycle period");
}

TEST(ObsSessionFlags, ProfilePeriodBareOrPositive) {
  const auto period_of = [](std::vector<const char*> argv) {
    const util::ArgParser args(static_cast<int>(argv.size()), argv.data());
    ObsSession session(args);
    SweepSpec spec;
    session.attach(spec);
    reject_unknown_flags(args);  // returns: every flag was consumed
    return spec.online_config.profile_period;
  };
  EXPECT_EQ(period_of({"fig05_uniform16", "--timeseries-out", "unused.jsonl",
                       "--profile"}),
            64u);
  EXPECT_EQ(period_of({"fig05_uniform16", "--timeseries-out", "unused.jsonl",
                       "--profile", "8"}),
            8u);
  EXPECT_EQ(period_of({"fig05_uniform16", "--timeseries-out", "unused.jsonl",
                       "--profile=1"}),
            1u);
}

// The spatial run's point and the tracer's capacity are checked when
// the session is built, not after the sweep has already run.
TEST(ObsSessionFlags, NegativeSpatialLoadRejectedWithStatus2) {
  const char* const argv[] = {"fig05_uniform16", "--spatial-out", "unused",
                              "--spatial-load", "-1"};
  EXPECT_EXIT(ObsSession session(util::ArgParser(5, argv)),
              ::testing::ExitedWithCode(2),
              "--spatial-load must be a load >= 0");
}

TEST(ObsSessionFlags, UnknownSpatialLimiterRejectedWithStatus2) {
  const char* const argv[] = {"fig05_uniform16", "--spatial-out", "unused",
                              "--spatial-limiter", "bogus"};
  EXPECT_EXIT(ObsSession session(util::ArgParser(5, argv)),
              ::testing::ExitedWithCode(2),
              "--spatial-limiter must be one of none, alo, lf, dril");
}

TEST(ObsSessionFlags, ZeroTraceCapacityRejectedWithStatus2) {
  const char* const argv[] = {"fig05_uniform16", "--trace", "unused.json",
                              "--trace-capacity", "0"};
  EXPECT_EXIT(ObsSession session(util::ArgParser(5, argv)),
              ::testing::ExitedWithCode(2),
              "--trace-capacity must be at least 1 event");
}

}  // namespace
}  // namespace wormsim::harness
