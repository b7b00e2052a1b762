// Tests for trace replay and telemetry streaming: record a run through the
// monitor, replay its CSV as load, and watch live sample events.
#include "apps/trace_replay.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "dsp/period.hpp"
#include "experiments/scenario.hpp"
#include "monitor/client.hpp"
#include "monitor/power_monitor.hpp"

namespace fluxpower::apps {
namespace {

TEST(PowerTrace, ParsesMonitorCsvColumns) {
  const std::string csv =
      "jobid,hostname,timestamp_s,node_power_w,cpu0_w,cpu1_w,mem_w,gpu0_w,"
      "gpu1_w,gpu2_w,gpu3_w,dataset\n"
      "1,lassen0,10.00,1000.0,110.0,112.0,70.0,200.0,201.0,202.0,203.0,complete\n"
      "1,lassen0,12.00,1010.0,111.0,113.0,71.0,210.0,211.0,212.0,213.0,complete\n";
  const PowerTrace trace = PowerTrace::from_csv(csv);
  ASSERT_EQ(trace.points.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.points[0].t_s, 0.0);  // rebased
  EXPECT_DOUBLE_EQ(trace.points[1].t_s, 2.0);
  ASSERT_EQ(trace.points[0].demand.cpu_w.size(), 2u);
  ASSERT_EQ(trace.points[0].demand.gpu_w.size(), 4u);
  EXPECT_DOUBLE_EQ(trace.points[0].demand.gpu_w[3], 203.0);
  EXPECT_DOUBLE_EQ(trace.points[1].demand.mem_w, 71.0);
  EXPECT_DOUBLE_EQ(trace.duration_s(), 2.0);
}

TEST(PowerTrace, IgnoresCapColumnsAndHandlesOam) {
  const std::string csv =
      "timestamp_s,cpu0_w,oam0_w,oam1_w,gpu0_cap_w\n"
      "0,100,300,310,250\n"
      "2,110,320,330,250\n";
  const PowerTrace trace = PowerTrace::from_csv(csv);
  ASSERT_EQ(trace.points[0].demand.gpu_w.size(), 2u);  // cap column skipped
  EXPECT_DOUBLE_EQ(trace.points[1].demand.gpu_w[1], 330.0);
}

TEST(PowerTrace, CpuCapColumnsAreNotDemand) {
  // Regression: resolve_columns used to count `cpu<i>_cap_w` as CPU demand
  // because only the GPU branch carried the cap exclusion. A node-dial CSV
  // (IBM OPAL caps) would then replay its own control state as load.
  const std::string csv =
      "timestamp_s,cpu0_w,cpu0_cap_w,cpu1_w,cpu1_cap_w,mem_w\n"
      "0,110,330,112,330,70\n"
      "2,111,250,113,250,71\n";
  const PowerTrace trace = PowerTrace::from_csv(csv);
  ASSERT_EQ(trace.points[0].demand.cpu_w.size(), 2u);  // caps skipped
  EXPECT_DOUBLE_EQ(trace.points[0].demand.cpu_w[0], 110.0);
  EXPECT_DOUBLE_EQ(trace.points[1].demand.cpu_w[1], 113.0);
}

TEST(PowerTrace, Validation) {
  EXPECT_THROW(PowerTrace::from_csv(""), std::invalid_argument);
  EXPECT_THROW(PowerTrace::from_csv("a,b\n1,2\n"), std::invalid_argument);
  EXPECT_THROW(PowerTrace::from_csv("timestamp_s,cpu0_w\n"),
               std::invalid_argument);
  EXPECT_THROW(PowerTrace::from_csv("timestamp_s,cpu0_w\n5,100\n3,100\n"),
               std::invalid_argument);
  EXPECT_THROW(PowerTrace::from_csv("timestamp_s,cpu0_w\nx,100\n"),
               std::invalid_argument);
}

// Every numeric cell must be one whole, finite token: non-finite spellings,
// trailing garbage and overflow are errors that name the offending cell.
TEST(PowerTrace, RejectsNonFiniteAndPartialCells) {
  for (const std::string bad : {"nan", "-nan", "inf", "-inf", "12abc",
                                "1e400", "1.5.2"}) {
    for (const std::string& csv :
         {"timestamp_s,cpu0_w\n" + bad + ",100\n",
          "timestamp_s,cpu0_w,mem_w,gpu0_w\n0,100,20,30\n1,100,20," + bad +
              "\n"}) {
      try {
        PowerTrace::from_csv(csv);
        ADD_FAILURE() << "accepted cell '" << bad << "'";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("'" + bad + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // Ordinary spellings still parse, exponents and signs included.
  const PowerTrace ok =
      PowerTrace::from_csv("timestamp_s,cpu0_w\n0,1.5e2\n2,-0.0\n");
  ASSERT_EQ(ok.points.size(), 2u);
  EXPECT_DOUBLE_EQ(ok.points[0].demand.cpu_w[0], 150.0);
  EXPECT_DOUBLE_EQ(ok.points[1].t_s, 2.0);
}

TEST(TraceReplay, RecordedRunReplaysWithSamePowerShape) {
  // 1. Record: run Quicksilver and export its telemetry CSV.
  auto recorded = experiments::run_single_job(
      hwsim::Platform::LassenIbmAc922, AppKind::Quicksilver, 1, 27.5);

  experiments::ScenarioConfig cfg;
  cfg.nodes = 1;
  cfg.sensor_noise = 0.0;
  experiments::Scenario rec(cfg);
  experiments::JobRequest req;
  req.kind = AppKind::Quicksilver;
  req.nnodes = 1;
  req.work_scale = 27.5;
  const flux::JobId id = rec.submit(req);
  rec.run();
  monitor::MonitorClient client(rec.instance());
  auto data = client.query_blocking(id);
  ASSERT_TRUE(data.has_value());
  const std::string csv = monitor::MonitorClient::to_csv(*data);

  // 2. Replay on a fresh node and sample the draw.
  const PowerTrace trace = PowerTrace::from_csv(csv);
  EXPECT_NEAR(trace.duration_s(), recorded.result.runtime_s, 6.0);

  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, 1);
  TraceReplayRuntime replay(sim, {&cluster.node(0)}, trace);
  bool done = false;
  replay.start([&] { done = true; });
  std::vector<double> series;
  sim::PeriodicTask sampler(sim, 2.0, [&] {
    series.push_back(cluster.node(0).node_draw_w());
    return !done;
  });
  sim.run_until(trace.duration_s() + 10.0);
  ASSERT_TRUE(done);

  // The replayed signal keeps Quicksilver's periodicity.
  const auto est = dsp::find_period(series, 2.0);
  ASSERT_TRUE(est.has_value());
  const auto prof =
      make_profile(AppKind::Quicksilver, hwsim::Platform::LassenIbmAc922, 1,
                   27.5);
  EXPECT_NEAR(est->period_s, prof.iteration_s, 2.0);
  // And roughly the recorded average power (base components are estimated
  // at replay because the CSV has no uncore column).
  const double replay_avg =
      std::accumulate(series.begin(), series.end(), 0.0) / series.size();
  EXPECT_NEAR(replay_avg, recorded.result.avg_node_power_w, 120.0);
}

TEST(TraceReplay, CancelIdlesNodes) {
  const std::string csv =
      "timestamp_s,cpu0_w,cpu1_w,mem_w,gpu0_w,gpu1_w,gpu2_w,gpu3_w\n"
      "0,150,150,80,250,250,250,250\n"
      "100,150,150,80,250,250,250,250\n";
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, 1);
  TraceReplayRuntime replay(sim, {&cluster.node(0)}, PowerTrace::from_csv(csv));
  replay.start([] {});
  sim.run_until(10.0);
  EXPECT_GT(cluster.node(0).node_draw_w(), 1000.0);
  replay.cancel();
  EXPECT_NEAR(cluster.node(0).node_draw_w(), 400.0, 1.0);
}

TEST(Streaming, SampleEventsPublishedWhenEnabled) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 2;
  monitor::PowerMonitorConfig mcfg = monitor::PowerMonitorConfig::for_lassen();
  mcfg.stream_samples = true;
  cfg.monitor = mcfg;
  experiments::Scenario s(cfg);

  int events = 0;
  double last_node_w = 0.0;
  s.instance().root().subscribe_event(
      "power-monitor.sample", [&](const flux::Message& m) {
        ++events;
        last_node_w = m.payload.at("sample").number_or("power_node_watts", 0.0);
      });
  s.sim().run_until(21.0);
  // 2 nodes x 10 samples each over 20 s.
  EXPECT_EQ(events, 20);
  EXPECT_NEAR(last_node_w, 400.0, 30.0);
}

TEST(Streaming, EnabledAtRuntimeViaSetConfig) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 1;
  experiments::Scenario s(cfg);
  int events = 0;
  s.instance().root().subscribe_event(
      "power-monitor.sample", [&](const flux::Message&) { ++events; });
  s.sim().run_until(10.0);
  EXPECT_EQ(events, 0);  // off by default
  util::Json req = util::Json::object();
  req["stream_samples"] = true;
  s.instance().root().rpc(0, monitor::kSetConfigTopic, std::move(req),
                          [](const flux::Message&) {});
  s.sim().run_until(30.5);
  EXPECT_GE(events, 9);
}

}  // namespace
}  // namespace fluxpower::apps
