// Non-finite cap requests on every platform.
//
// A NaN compares false against both firmware bounds, so a clamp that only
// checks `< min` and `> max` lets it through and stores NaN in the cap
// register, where the grant rule reads it as "no cap". This test pins the
// boundary: a ±NaN or ±inf socket, GPU or node write is refused with no
// applied value, and no cap register, wedge bit or grant moves, even after
// simulated time passes far enough for a latency-delayed write to land.
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hwsim/arm_grace.hpp"
#include "hwsim/cray_ex235a.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "hwsim/intel_xeon.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::hwsim {
namespace {

struct Case {
  std::string name;
  std::function<std::unique_ptr<Node>(sim::Simulation&)> make;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"ac922", [](sim::Simulation& s) {
                   return std::make_unique<IbmAc922Node>(s, "lassen7",
                                                         IbmAc922Config{});
                 }});
  out.push_back({"ac922_latency", [](sim::Simulation& s) {
                   IbmAc922Config c;
                   c.node_cap_latency_s = 2.0;
                   c.gpu_cap_latency_s = 1.5;
                   return std::make_unique<IbmAc922Node>(s, "lassen7", c);
                 }});
  out.push_back({"ac922_nvml_failures", [](sim::Simulation& s) {
                   // Every GPU write below the node-cap threshold would hit
                   // the NVML failure path; a non-finite one must not.
                   IbmAc922Config c;
                   c.nvml_failure_rate = 1.0;
                   return std::make_unique<IbmAc922Node>(s, "lassen7", c);
                 }});
  out.push_back({"ex235a", [](sim::Simulation& s) {
                   return std::make_unique<CrayEx235aNode>(s, "tioga3",
                                                           CrayEx235aConfig{});
                 }});
  out.push_back({"ex235a_user_caps", [](sim::Simulation& s) {
                   CrayEx235aConfig c;
                   c.capping_enabled_for_users = true;
                   return std::make_unique<CrayEx235aNode>(s, "tioga3", c);
                 }});
  out.push_back({"xeon", [](sim::Simulation& s) {
                   return std::make_unique<IntelXeonNode>(s, "xeon5",
                                                          IntelXeonConfig{});
                 }});
  out.push_back({"grace", [](sim::Simulation& s) {
                   return std::make_unique<ArmGraceNode>(s, "grace2",
                                                         ArmGraceConfig{});
                 }});
  return out;
}

/// Every cap register, wedge bit and grant of a node, for equality checks.
struct Snapshot {
  std::optional<double> node_cap;
  std::vector<std::optional<double>> sockets;
  std::vector<std::optional<double>> gpus;
  std::vector<bool> wedged;
  std::vector<double> grant_cpu;
  std::vector<double> grant_gpu;
  double grant_mem = 0.0;
  double grant_base = 0.0;
  double draw = 0.0;

  explicit Snapshot(const Node& n) {
    node_cap = n.node_power_cap();
    for (int i = 0; i < n.socket_count(); ++i) {
      sockets.push_back(n.socket_power_cap(i));
    }
    const auto* ac922 = dynamic_cast<const IbmAc922Node*>(&n);
    for (int i = 0; i < n.gpu_count(); ++i) {
      gpus.push_back(n.gpu_power_cap(i));
      wedged.push_back(ac922 != nullptr && ac922->gpu_cap_wedged(i));
    }
    const Grants& g = n.grants();
    grant_cpu.assign(g.cpu_w.begin(), g.cpu_w.end());
    grant_gpu.assign(g.gpu_w.begin(), g.gpu_w.end());
    grant_mem = g.mem_w;
    grant_base = g.base_w;
    draw = n.node_draw_w();
  }

  bool operator==(const Snapshot&) const = default;
};

class NonFiniteCapTest : public ::testing::TestWithParam<Case> {};

TEST_P(NonFiniteCapTest, RefusedWithoutTouchingAnyRegister) {
  sim::Simulation sim;
  std::unique_ptr<Node> node = GetParam().make(sim);
  const int sockets = node->socket_count();
  const int gpus = node->gpu_count();

  // Busy node with a finite cap in every register that takes one, written
  // at a node cap low enough for the AC922 NVML failure window.
  LoadDemand over;
  over.cpu_w.assign(static_cast<std::size_t>(sockets), 1000.0);
  over.gpu_w.assign(static_cast<std::size_t>(gpus), 1000.0);
  over.mem_w = 500.0;
  node->set_demand(over);
  const CapResult node_ok = node->set_node_power_cap(1100.0);
  std::vector<CapResult> socket_ok, gpu_ok;
  for (int s = 0; s < sockets; ++s) {
    socket_ok.push_back(node->set_socket_power_cap(s, 150.0));
  }
  sim.run_until(sim.now() + 10.0);  // let delayed writes settle
  // GPU caps go last so the NVML failure path sees the low node cap.
  for (int g = 0; g < gpus; ++g) {
    gpu_ok.push_back(node->set_gpu_power_cap(g, 200.0));
  }
  sim.run_until(sim.now() + 10.0);
  const Snapshot before(*node);

  // A writable domain refuses the value as out of range; one that refuses
  // every write (unsupported, fused off) keeps refusing it the same way.
  auto expect_refused = [](const CapResult& r, const CapResult& finite,
                           const std::string& what) {
    EXPECT_FALSE(r.applied_watts.has_value()) << what;
    EXPECT_FALSE(r.ok()) << what;
    if (finite.ok()) {
      EXPECT_EQ(r.status, CapStatus::OutOfRange) << what;
    } else {
      EXPECT_EQ(r.status, finite.status) << what;
    }
  };

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double w : {nan, -nan, inf, -inf}) {
    const std::string v = std::to_string(w);
    for (int s = 0; s < sockets; ++s) {
      expect_refused(node->set_socket_power_cap(s, w),
                     socket_ok[static_cast<std::size_t>(s)],
                     "socket " + std::to_string(s) + " " + v);
    }
    for (int g = 0; g < gpus; ++g) {
      expect_refused(node->set_gpu_power_cap(g, w),
                     gpu_ok[static_cast<std::size_t>(g)],
                     "gpu " + std::to_string(g) + " " + v);
    }
    expect_refused(node->set_node_power_cap(w), node_ok, "node " + v);
    EXPECT_TRUE(Snapshot(*node) == before) << v;
  }
  // Nothing was scheduled to land later either.
  sim.run_until(sim.now() + 10.0);
  EXPECT_TRUE(Snapshot(*node) == before);
  if (const auto* ac922 = dynamic_cast<const IbmAc922Node*>(node.get())) {
    const std::uint64_t failures = ac922->nvml_silent_failures();
    node->set_gpu_power_cap(0, nan);
    EXPECT_EQ(ac922->nvml_silent_failures(), failures);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, NonFiniteCapTest,
                         ::testing::ValuesIn(cases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace fluxpower::hwsim
