// Edge-JSON golden: every monitor telemetry RPC answers with a typed
// TelemetryBatch, and JSON exists only where a response is rendered at the
// edge. Rendering each typed response with flux::render_telemetry_payload
// must reproduce, byte for byte, the JSON responses recorded in
// tests/golden/monitor_edge_json.txt on a fixed 7-node, fanout-2 stack:
// get-data, get-subtree with and without max_samples, query-job, and
// get-subtree with one subtree unloaded.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/launcher.hpp"
#include "flux/instance.hpp"
#include "flux/telemetry.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/power_monitor.hpp"

namespace fluxpower::monitor {
namespace {

/// One edge response per case, in the order the cases run.
using EdgeResponses = std::vector<std::pair<std::string, flux::Message>>;

EdgeResponses run_edge_cases() {
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, 7);
  std::vector<hwsim::Node*> ptrs;
  for (int i = 0; i < 7; ++i) ptrs.push_back(&cluster.node(i));
  flux::InstanceConfig icfg;
  icfg.tbon_fanout = 2;
  flux::Instance instance(sim, std::move(ptrs), icfg);
  instance.jobs().set_launcher(
      apps::make_launcher({.platform = hwsim::Platform::LassenIbmAc922}));
  instance.load_module_on_all<PowerMonitorModule>(
      PowerMonitorConfig::for_lassen());

  flux::JobSpec spec;
  spec.name = "laghos";
  spec.app = "laghos";
  spec.nnodes = 7;
  spec.attributes = util::Json::object();
  spec.attributes["work_scale"] = 0.5;
  const flux::JobId id = instance.jobs().submit(spec);
  while (!instance.jobs().job(id).done() && sim.step()) {
  }
  sim.run_until(sim.now() + 10.0);

  EdgeResponses out;
  auto ask = [&](const std::string& name, flux::Rank dest,
                 const std::string& topic, util::Json payload) {
    bool done = false;
    instance.root().rpc(dest, topic, std::move(payload),
                        [&](const flux::Message& resp) {
                          out.emplace_back(name, resp);
                          done = true;
                        });
    while (!done && sim.step()) {
    }
  };
  auto window = [](int max_samples) {
    util::Json w = util::Json::object();
    w["start"] = 4.0;
    w["end"] = 16.0;
    if (max_samples > 0) w["max_samples"] = max_samples;
    util::Json ranks = util::Json::array();
    for (int r = 0; r < 7; ++r) ranks.push_back(r);
    w["ranks"] = std::move(ranks);
    return w;
  };

  ask("get-data", 3, kGetDataTopic, window(0));
  ask("get-subtree", flux::kRootRank, kGetSubtreeTopic, window(0));
  ask("get-subtree-max-samples", flux::kRootRank, kGetSubtreeTopic,
      window(3));
  util::Json job = util::Json::object();
  job["id"] = id;
  ask("query-job", flux::kRootRank, kQueryJobTopic, std::move(job));
  // Rank 2's subtree {2, 5, 6} goes dark for subtree queries.
  instance.broker(2).unload_module("power-monitor");
  ask("get-subtree-unloaded", flux::kRootRank, kGetSubtreeTopic, window(0));
  return out;
}

/// The golden file: one "<case> <json>" line per case.
std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(FP_GOLDEN_DIR "/monitor_edge_json.txt");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    golden[line.substr(0, space)] = line.substr(space + 1);
  }
  return golden;
}

TEST(EdgeJsonGolden, TypedResponsesRenderToRecordedJson) {
  const std::map<std::string, std::string> golden = load_golden();
  const EdgeResponses responses = run_edge_cases();
  ASSERT_EQ(golden.size(), responses.size());
  for (const auto& [name, resp] : responses) {
    ASSERT_FALSE(resp.is_error()) << name << ": " << resp.error_text;
    ASSERT_NE(resp.telemetry, nullptr) << name;
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << name;
    EXPECT_EQ(flux::render_telemetry_payload(resp.payload, *resp.telemetry)
                  .dump(),
              it->second)
        << name;
  }
}

}  // namespace
}  // namespace fluxpower::monitor
