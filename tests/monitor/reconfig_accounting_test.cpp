// Runtime reconfiguration must not corrupt the node-agent's sample
// accounting: replacing the ring buffer via set-config discards retained
// samples, and those must show up as *evicted* — so the sweep-accounting
// identity (samples_taken == evicted + size + sensor_failures) keeps
// holding and a job window straddling the reconfiguration honestly reports
// partial data instead of silently forgetting the loss.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/client.hpp"
#include "monitor/power_monitor.hpp"

namespace fluxpower::monitor {
namespace {

constexpr int kNodes = 2;

class ReconfigAccountingTest : public ::testing::Test {
 protected:
  ReconfigAccountingTest() {
    cluster_ = hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922,
                                   kNodes);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < cluster_.size(); ++i)
      nodes.push_back(&cluster_.node(i));
    instance_ = std::make_unique<flux::Instance>(sim_, std::move(nodes));
    PowerMonitorConfig mcfg;
    mcfg.sample_period_s = 1.0;
    mcfg.buffer_capacity = 8;
    mcfg.archive_jobs = false;
    instance_->load_module_on_all<PowerMonitorModule>(mcfg);
  }

  struct Status {
    std::int64_t taken = -1;
    std::int64_t evicted = -1;
    std::int64_t size = -1;
    std::int64_t failures = -1;
    std::int64_t capacity = -1;
    double period = -1.0;
  };

  Status status_of(flux::Rank rank) {
    Status st;
    bool got = false;
    instance_->broker(rank).rpc(
        rank, kStatusTopic, util::Json::object(),
        [&](const flux::Message& resp) {
          got = true;
          st.taken = resp.payload.int_or("samples_taken", -1);
          st.evicted = resp.payload.int_or("evicted", -1);
          st.size = resp.payload.int_or("buffer_size", -1);
          st.failures = resp.payload.int_or("sensor_failures", -1);
          st.capacity = resp.payload.int_or("buffer_capacity", -1);
          st.period = resp.payload.number_or("sample_period_s", -1.0);
        });
    while (!got && sim_.step()) {
    }
    EXPECT_TRUE(got);
    return st;
  }

  void set_config(flux::Rank rank, util::Json payload) {
    bool got = false;
    instance_->broker(rank).rpc(rank, kSetConfigTopic, std::move(payload),
                                [&](const flux::Message& resp) {
                                  got = true;
                                  EXPECT_FALSE(resp.is_error());
                                });
    while (!got && sim_.step()) {
    }
    EXPECT_TRUE(got);
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
  std::unique_ptr<flux::Instance> instance_;
};

TEST_F(ReconfigAccountingTest, BufferSwapCountsDiscardedSamplesAsEvicted) {
  sim_.run_until(30.0);
  const Status before = status_of(1);
  ASSERT_GT(before.taken, 8);
  EXPECT_EQ(before.size, 8);
  EXPECT_EQ(before.taken, before.evicted + before.size + before.failures);

  // Grow the buffer. The reallocation drops the 8 retained samples — all
  // prior pushes must now read as evicted, not vanish from the ledger.
  util::Json cfg = util::Json::object();
  cfg["buffer_capacity"] = 16;
  set_config(1, std::move(cfg));

  const Status after = status_of(1);
  EXPECT_EQ(after.capacity, 16);
  EXPECT_GE(after.evicted, before.taken);
  EXPECT_EQ(after.taken, after.evicted + after.size + after.failures);

  // And the identity keeps holding as the new buffer fills and wraps.
  sim_.run_until(sim_.now() + 40.0);
  const Status later = status_of(1);
  EXPECT_EQ(later.size, 16);
  EXPECT_GT(later.evicted, after.evicted);
  EXPECT_EQ(later.taken, later.evicted + later.size + later.failures);
}

TEST_F(ReconfigAccountingTest, StraddlingWindowReportsPartial) {
  sim_.run_until(20.0);
  util::Json cfg = util::Json::object();
  cfg["buffer_capacity"] = 32;
  set_config(0, std::move(cfg));
  set_config(1, util::Json::object());  // no-op on rank 1
  sim_.run_until(30.0);

  // Rank 0 lost its pre-reconfig samples; a window reaching back before the
  // swap must be flagged partial there. Rank 1 also evicted (capacity 8),
  // so it reports partial for the same honest reason — the key is that
  // *neither* claims completeness it cannot back.
  MonitorClient client(*instance_);
  const auto data = client.query_window_blocking({0, 1}, 0.0, 30.0);
  ASSERT_TRUE(data.has_value());
  ASSERT_EQ(data->nodes.size(), 2u);
  for (const NodePowerData& n : data->nodes) {
    EXPECT_FALSE(n.errored);
    EXPECT_FALSE(n.complete) << "rank " << n.rank;
    EXPECT_FALSE(n.samples.empty()) << "rank " << n.rank;
    // Every sample it does return is real and inside the window.
    for (const auto& s : n.samples) {
      EXPECT_GE(s.timestamp_s, 0.0);
      EXPECT_LE(s.timestamp_s, 30.0);
    }
  }
}

/// A set-config payload whose `key` is out of range, paired with a valid
/// change to the other knob: the whole request must be refused.
struct BadConfig {
  const char* name;
  const char* key;
  double value;
};

void PrintTo(const BadConfig& c, std::ostream* os) { *os << c.name; }

class SetConfigValidationTest
    : public ReconfigAccountingTest,
      public ::testing::WithParamInterface<BadConfig> {};

TEST_P(SetConfigValidationTest, RejectsWithEinvalAndKeepsState) {
  sim_.run_until(10.5);
  const Status before = status_of(1);

  util::Json cfg = util::Json::object();
  cfg["sample_period_s"] = 0.5;
  cfg["buffer_capacity"] = 16;
  const std::string key = GetParam().key;
  if (key == "buffer_capacity") {
    cfg[key] = static_cast<std::int64_t>(GetParam().value);
  } else {
    cfg[key] = GetParam().value;
  }
  int errnum = 0;
  bool got = false;
  instance_->broker(1).rpc(1, kSetConfigTopic, std::move(cfg),
                           [&](const flux::Message& resp) {
                             got = true;
                             errnum = resp.errnum;
                           });
  while (!got && sim_.step()) {
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(errnum, flux::kEInval);

  const Status after = status_of(1);
  EXPECT_EQ(after.capacity, 8);
  EXPECT_EQ(after.period, 1.0);
  // The sampler still runs on its old 1 s period and the ring still evicts.
  sim_.run_until(sim_.now() + 10.0);
  const Status later = status_of(1);
  EXPECT_EQ(later.taken, before.taken + 10);
  EXPECT_EQ(later.size, 8);
  EXPECT_EQ(later.taken, later.evicted + later.size + later.failures);
}

INSTANTIATE_TEST_SUITE_P(
    BadValues, SetConfigValidationTest,
    ::testing::Values(
        BadConfig{"NegativeCapacity", "buffer_capacity", -1.0},
        BadConfig{"ZeroCapacity", "buffer_capacity", 0.0},
        BadConfig{"NanPeriod", "sample_period_s",
                  std::numeric_limits<double>::quiet_NaN()},
        BadConfig{"InfinitePeriod", "sample_period_s",
                  std::numeric_limits<double>::infinity()},
        BadConfig{"NegativePeriod", "sample_period_s", -2.0}),
    [](const ::testing::TestParamInfo<BadConfig>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace fluxpower::monitor
