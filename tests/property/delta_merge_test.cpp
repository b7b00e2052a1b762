// Property: incremental TBON delta aggregation is *observationally
// identical* to the full re-merge. Across 50 seeds, two stacks — one with
// delta_aggregation on, one off — are driven through the same script (same
// windows, same query roots, same fault weather) and every rendered
// get-subtree payload must match byte for byte at every hop. Because the
// delta protocol keeps the RPC pattern of the full merge (one request +
// one response per child per query), the deterministic fault schedules
// line up too: drops, duplicates, delays and crash/reboot resyncs hit the
// same messages in both stacks, so even degraded results must agree.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "faultsim/fault_plane.hpp"
#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/power_monitor.hpp"

namespace fluxpower {
namespace {

constexpr int kNodes = 8;

struct Stack {
  sim::Simulation sim;
  hwsim::Cluster cluster;
  std::unique_ptr<flux::Instance> instance;
  std::unique_ptr<faultsim::FaultPlane> plane;

  Stack(bool delta, const faultsim::FaultPlaneConfig* faults) {
    cluster = hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, kNodes);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < cluster.size(); ++i) nodes.push_back(&cluster.node(i));
    flux::InstanceConfig icfg;
    icfg.tbon_fanout = 2;
    instance = std::make_unique<flux::Instance>(sim, std::move(nodes), icfg);
    if (faults != nullptr) {
      plane = std::make_unique<faultsim::FaultPlane>(*faults);
      plane->attach(*instance);
    }
    monitor::PowerMonitorConfig mcfg = monitor::PowerMonitorConfig::for_tioga();
    mcfg.archive_jobs = false;
    mcfg.delta_aggregation = delta;
    instance->load_module_on_all<monitor::PowerMonitorModule>(mcfg);
  }
};

/// One observed get-subtree answer: the rendered JSON payload plus the
/// response error number (timeouts / unloaded-module answers must match
/// between the two stacks just like successful merges).
struct Observation {
  std::string payload = "<no-response>";
  int errnum = -1;
};

/// Drive one stack through the seed's deterministic query script and
/// record every rendered answer. The script queries *every broker* as an
/// aggregation root over its own subtree — so each hop of the tree is
/// exercised both as a delta root (replica materialization) and as a
/// delta hop (watermarked contribution) — across three rounds: a cold
/// round (full resync: empty replicas), a warm steady-state round, and a
/// decimated round (max_samples forces the shared windowing arithmetic).
std::vector<Observation> run_script(bool delta, std::uint64_t seed,
                                    const faultsim::FaultPlaneConfig* faults) {
  Stack stack(delta, faults);
  const flux::Tbon& tbon = stack.instance->tbon();
  // Seed-derived script parameters so the 50 calm-weather runs differ too.
  const double warmup_s = 20.0 + static_cast<double>(seed % 7);
  const double settle_s = faults != nullptr ? 12.0 : 2.0;
  const std::size_t max_samples = 8 + seed % 9;

  auto results = std::make_shared<std::vector<Observation>>();
  results->resize(3 * kNodes);  // fixed size: callbacks index, never grow

  stack.sim.run_until(warmup_s);
  std::size_t slot = 0;
  for (int round = 0; round < 3; ++round) {
    for (int root = 0; root < kNodes; ++root, ++slot) {
      util::Json req = util::Json::object();
      req["start"] = 0.0;
      req["end"] = stack.sim.now();
      util::Json arr = util::Json::array();
      for (flux::Rank r : tbon.subtree(root)) arr.push_back(r);
      req["ranks"] = std::move(arr);
      if (round == 2) {
        req["max_samples"] = static_cast<std::int64_t>(max_samples);
      }
      const std::size_t idx = slot;
      stack.instance->broker(root).rpc(
          root, monitor::kGetSubtreeTopic, std::move(req),
          [results, idx](const flux::Message& resp) {
            // Error answers carry no batch; merges render at the edge.
            util::Json rendered = resp.payload;
            if (resp.telemetry) {
              rendered = flux::render_telemetry_payload(resp.payload,
                                                        *resp.telemetry);
            }
            (*results)[idx].payload = rendered.dump();
            (*results)[idx].errnum = resp.errnum;
          },
          /*timeout_s=*/30.0);
      stack.sim.run_until(stack.sim.now() + settle_s);
    }
  }
  // Let straggling child timeouts and the 30 s guard fire so the late
  // observations (if any) land in both stacks before comparison.
  stack.sim.run_until(stack.sim.now() + 45.0);
  return *results;
}

void expect_identical(const std::vector<Observation>& full,
                      const std::vector<Observation>& delta) {
  ASSERT_EQ(full.size(), delta.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].errnum, delta[i].errnum) << "query " << i;
    EXPECT_EQ(full[i].payload, delta[i].payload) << "query " << i;
  }
}

class DeltaMerge : public ::testing::TestWithParam<std::uint64_t> {};

// Calm weather: every merge succeeds; delta answers must be byte-identical
// to the full re-merge at every root, cold and warm alike.
TEST_P(DeltaMerge, CalmWeatherByteIdentical) {
  const std::uint64_t seed = GetParam();
  const auto full = run_script(/*delta=*/false, seed, nullptr);
  const auto delta = run_script(/*delta=*/true, seed, nullptr);
  expect_identical(full, delta);
  // The script must have produced real answers, not vacuous matches.
  for (const Observation& o : full) {
    ASSERT_NE(o.payload, "<no-response>");
    EXPECT_EQ(o.errnum, 0);
  }
}

// Full fault weather: link drops, duplicates and delays plus node
// crash/reboot cycles (which wipe source buffers and force replica
// resyncs) and sensor faults. Both stacks see the identical fault
// schedule because the delta protocol routes the same message sequence —
// so even errored placeholders and timed-out queries must agree byte for
// byte.
TEST_P(DeltaMerge, ChaosWeatherByteIdentical) {
  faultsim::FaultPlaneConfig faults;
  faults.seed = GetParam() * 6151 + 29;
  faults.msg_drop_rate = 0.08;
  faults.msg_dup_rate = 0.05;
  faults.msg_delay_rate = 0.10;
  faults.msg_delay_max_s = 0.200;
  faults.node_mtbf_s = 150.0;
  faults.node_reboot_s = 15.0;
  faults.sensor_dropout_rate = 0.05;
  const std::uint64_t seed = GetParam();
  const auto full = run_script(/*delta=*/false, seed, &faults);
  const auto delta = run_script(/*delta=*/true, seed, &faults);
  expect_identical(full, delta);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaMerge,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
}  // namespace fluxpower
