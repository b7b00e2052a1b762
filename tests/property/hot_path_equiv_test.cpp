// Equivalence property for the compute-on-change node hot path.
//
// A node recomputes its grants only when the floored demand or a cap
// register moves. These tests drive random op sequences (demands with
// repeats, cap set/clear with identical re-writes, uniform GPU sweeps,
// low-power toggles, AC922 latency writes landing as time advances) and
// check after every op that the node's grants are bit-for-bit those of a
// freshly built node driven straight to the same registers and request.
// The NVML-failure case additionally checks that identical re-writes still
// consume their failure draws, so the wedge path and the RNG stream match a
// run in which every write is applied.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <tuple>

#include "hwsim/arm_grace.hpp"
#include "hwsim/cluster.hpp"
#include "hwsim/cray_ex235a.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "hwsim/intel_xeon.hpp"
#include "util/rng.hpp"
#include "variorum/variorum.hpp"

namespace fluxpower {
namespace {

using hwsim::Grants;
using hwsim::LoadDemand;
using hwsim::Platform;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <class Vec>
bool same_bits(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

::testing::AssertionResult same_state(const hwsim::Node& got,
                                      const hwsim::Node& want) {
  const Grants& g = got.grants();
  const Grants& w = want.grants();
  if (!same_bits(g.cpu_w, w.cpu_w) || !same_bits(g.gpu_w, w.gpu_w) ||
      !same_bits(g.mem_w, w.mem_w) || !same_bits(g.base_w, w.base_w)) {
    std::ostringstream os;
    os << "grants differ: total " << g.total() << " vs " << w.total();
    return ::testing::AssertionFailure() << os.str();
  }
  if (!(got.demand() == want.demand())) {
    return ::testing::AssertionFailure() << "floored demand differs";
  }
  if (!same_bits(got.node_draw_w(), want.node_draw_w())) {
    return ::testing::AssertionFailure() << "node draw differs";
  }
  return ::testing::AssertionSuccess();
}

/// The node under test. Odd seeds vary the platform shape: AC922 cap
/// writes settle after a latency, Tioga capping is enabled for users, Xeon
/// carries two PCIe GPUs and Grace two sockets. `reference` builds the
/// oracle's twin: same shape, but every write applies immediately.
std::unique_ptr<hwsim::Node> build(sim::Simulation& sim, Platform platform,
                                   std::uint64_t seed, bool reference) {
  const bool odd = seed % 2 == 1;
  switch (platform) {
    case Platform::LassenIbmAc922: {
      hwsim::IbmAc922Config c;
      if (odd && !reference) {
        c.node_cap_latency_s = 1.5;
        c.gpu_cap_latency_s = 0.75;
      }
      return std::make_unique<hwsim::IbmAc922Node>(sim, "equiv0", c);
    }
    case Platform::TiogaCrayEx235a: {
      hwsim::CrayEx235aConfig c;
      c.capping_enabled_for_users = odd;
      return std::make_unique<hwsim::CrayEx235aNode>(sim, "equiv0", c);
    }
    case Platform::GenericIntelXeon: {
      hwsim::IntelXeonConfig c;
      c.gpus = odd ? 2 : 0;
      return std::make_unique<hwsim::IntelXeonNode>(sim, "equiv0", c);
    }
    case Platform::GenericArmGrace: {
      hwsim::ArmGraceConfig c;
      c.sockets = odd ? 2 : 1;
      return std::make_unique<hwsim::ArmGraceNode>(sim, "equiv0", c);
    }
  }
  return nullptr;
}

/// A random request: usually shaped like the node, sometimes short or long
/// (refresh pads and truncates to the floor's shape), values straddling the
/// idle floors and the caps.
LoadDemand random_demand(util::Rng& rng, const hwsim::Node& node) {
  const LoadDemand& floor = node.idle_demand();
  LoadDemand d;
  std::size_t ncpu = floor.cpu_w.size();
  std::size_t ngpu = floor.gpu_w.size();
  if (rng.chance(0.1)) {
    ncpu = static_cast<std::size_t>(rng.uniform_int(0, hwsim::kMaxSockets));
    ngpu = static_cast<std::size_t>(rng.uniform_int(0, hwsim::kMaxGpuSensors));
  }
  for (std::size_t i = 0; i < ncpu; ++i) d.cpu_w.push_back(rng.uniform(0, 600));
  for (std::size_t i = 0; i < ngpu; ++i) d.gpu_w.push_back(rng.uniform(0, 400));
  d.mem_w = rng.uniform(0.0, 150.0);
  return d;
}

/// A write value: half the time an identical re-write of the register.
double cap_value(util::Rng& rng, std::optional<double> current, double lo,
                 double hi) {
  if (current && rng.chance(0.5)) return *current;
  return rng.uniform(lo, hi);
}

class HotPathEquiv
    : public ::testing::TestWithParam<std::tuple<Platform, std::uint64_t>> {};

TEST_P(HotPathEquiv, GrantsMatchFreshNodeAfterEveryOp) {
  const auto [platform, seed] = GetParam();
  util::Rng rng(seed * 7919 + 17);
  sim::Simulation sim;
  std::unique_ptr<hwsim::Node> node = build(sim, platform, seed, false);
  LoadDemand request;  // what the node was last asked for (idle at build)

  for (int op = 0; op < 150; ++op) {
    const std::int64_t kind = rng.uniform_int(0, 7);
    switch (kind) {
      case 0:
      case 1:
        if (rng.chance(0.5)) request = random_demand(rng, *node);
        node->set_demand(request);  // else an identical re-submit
        break;
      case 2:
        request = LoadDemand{};
        node->idle();
        break;
      case 3:
        if (node->socket_count() > 0) {
          const int s =
              static_cast<int>(rng.uniform_int(0, node->socket_count() - 1));
          node->set_socket_power_cap(
              s, cap_value(rng, node->socket_power_cap(s), 50, 600));
        }
        break;
      case 4:
        if (node->gpu_count() > 0) {
          const int g =
              static_cast<int>(rng.uniform_int(0, node->gpu_count() - 1));
          const double w = cap_value(rng, node->gpu_power_cap(g), 50, 350);
          if (rng.chance(0.3)) {
            variorum::cap_each_gpu_power_limit(*node, w);
          } else {
            node->set_gpu_power_cap(g, w);
          }
        }
        break;
      case 5:
        if (rng.chance(0.25)) {
          node->clear_node_power_cap();
        } else {
          node->set_node_power_cap(
              cap_value(rng, node->node_power_cap(), 400, 3500));
        }
        break;
      case 6:
        node->set_low_power_state(rng.chance(0.5));
        break;
      default:
        sim.run_until(sim.now() + rng.uniform(0.0, 2.0));  // latency lands
        break;
    }

    sim::Simulation fresh_sim;
    std::unique_ptr<hwsim::Node> fresh = build(fresh_sim, platform, seed, true);
    for (int s = 0; s < node->socket_count(); ++s) {
      if (const auto cap = node->socket_power_cap(s)) {
        fresh->set_socket_power_cap(s, *cap);
      }
    }
    for (int g = 0; g < node->gpu_count(); ++g) {
      if (const auto cap = node->gpu_power_cap(g)) {
        fresh->set_gpu_power_cap(g, *cap);
      }
    }
    if (const auto cap = node->node_power_cap()) {
      fresh->set_node_power_cap(*cap);
    }
    fresh->set_low_power_state(node->low_power_state());
    fresh->set_demand(request);
    ASSERT_TRUE(same_state(*node, *fresh))
        << hwsim::platform_name(platform) << " seed " << seed << " op " << op
        << " kind " << kind;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HotPathEquiv,
    ::testing::Combine(::testing::Values(Platform::LassenIbmAc922,
                                         Platform::TiogaCrayEx235a,
                                         Platform::GenericIntelXeon,
                                         Platform::GenericArmGrace),
                       ::testing::Range<std::uint64_t>(0, 50)),
    [](const auto& info) {
      return std::string(hwsim::platform_name(std::get<0>(info.param))) +
             std::to_string(std::get<1>(info.param));
    });

// AC922 with the §V NVML failure mode on. The node under test and a
// reference node see the same ops; the reference is then forced through a
// full grant recomputation after each op (a detour through a different
// demand), i.e. it behaves as if every write were applied. An independent
// copy of the node's RNG mirrors the failure draws every NVML write must
// make under a low node cap — identical re-writes included.
TEST(HotPathEquivNvml, WedgePathAndDrawsMatchEveryWriteApplied) {
  int wedges = 0;
  int identical_low_cap_writes = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    hwsim::IbmAc922Config c;
    c.nvml_failure_rate = 0.35;
    sim::Simulation sim;
    sim::Simulation ref_sim;
    hwsim::IbmAc922Node node(sim, "nvml0", c);
    hwsim::IbmAc922Node ref(ref_sim, "nvml0", c);
    util::Rng oracle = node.sensor_rng();
    int expected_failures = 0;
    std::vector<char> expected_wedged(static_cast<std::size_t>(c.gpus), 0);
    util::Rng rng(seed + 101);
    LoadDemand request;

    auto gpu_write = [&](int g, double w) {
      const auto cap = node.node_power_cap();
      if (node.gpu_power_cap(g) == w && cap &&
          *cap <= c.nvml_failure_below_node_cap_w) {
        ++identical_low_cap_writes;
      }
      char& wedged = expected_wedged[static_cast<std::size_t>(g)];
      if (cap && *cap <= c.nvml_failure_below_node_cap_w &&
          oracle.chance(c.nvml_failure_rate)) {
        ++expected_failures;
        if (oracle.chance(0.5)) {
          wedged = 1;
          ++wedges;
        }
      } else {
        wedged = 0;
      }
      node.set_gpu_power_cap(g, w);
      ref.set_gpu_power_cap(g, w);
    };

    for (int op = 0; op < 150; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 4);
      if (kind == 0) {
        if (rng.chance(0.5)) request = random_demand(rng, node);
        node.set_demand(request);
        ref.set_demand(request);
      } else if (kind == 1) {
        const double w = cap_value(rng, node.node_power_cap(), 800, 1600);
        node.set_node_power_cap(w);
        ref.set_node_power_cap(w);
      } else if (kind == 2) {
        const double w = cap_value(rng, node.gpu_power_cap(0), 100, 300);
        for (int g = 0; g < node.gpu_count(); ++g) gpu_write(g, w);
      } else {
        const int g = static_cast<int>(rng.uniform_int(0, node.gpu_count() - 1));
        gpu_write(g, cap_value(rng, node.gpu_power_cap(g), 100, 300));
      }

      LoadDemand detour;
      detour.cpu_w.assign(2, 1e6);
      ref.set_demand(detour);
      ref.set_demand(request);

      ASSERT_TRUE(same_state(node, ref)) << "seed " << seed << " op " << op;
      ASSERT_EQ(node.nvml_silent_failures(), expected_failures)
          << "seed " << seed << " op " << op;
      for (int g = 0; g < node.gpu_count(); ++g) {
        ASSERT_EQ(node.gpu_cap_wedged(g) ? 1 : 0,
                  expected_wedged[static_cast<std::size_t>(g)])
            << "seed " << seed << " op " << op << " gpu " << g;
      }
      util::Rng next_node = node.sensor_rng();
      util::Rng next_oracle = oracle;
      ASSERT_EQ(next_node(), next_oracle()) << "seed " << seed << " op " << op;
    }
  }
  EXPECT_GT(wedges, 0);
  EXPECT_GT(identical_low_cap_writes, 0);
}

}  // namespace
}  // namespace fluxpower
