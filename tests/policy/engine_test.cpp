// Tests for the PolicyEngine registry and the built-in scheduler policies'
// decision semantics (the observe/act contracts of src/policy).
#include <gtest/gtest.h>

#include <stdexcept>

#include "policy/engine.hpp"
#include "policy/sched_policies.hpp"
#include "policy/state_codec.hpp"

namespace fluxpower::policy {
namespace {

flux::Job make_job(int nnodes, double estimate_w_per_node) {
  flux::Job job;
  job.id = 1;
  job.spec.nnodes = nnodes;
  job.spec.attributes = util::Json::object();
  if (estimate_w_per_node > 0.0) {
    job.spec.attributes["power_estimate_w_per_node"] = estimate_w_per_node;
  }
  return job;
}

TEST(PolicyEngineTest, BuiltinSchedPoliciesRegistered) {
  PolicyEngine& engine = PolicyEngine::global();
  for (const char* name :
       {"fcfs", "easy-backfill", "power-aware", "power-aware-easy",
        "eco-mode"}) {
    auto policy = engine.make_sched(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_STREQ(policy->name(), name);
  }
}

TEST(PolicyEngineTest, UnknownNameThrowsListingKnown) {
  try {
    PolicyEngine::global().make_sched("no-such-policy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-policy"), std::string::npos);
    EXPECT_NE(what.find("fcfs"), std::string::npos);
  }
}

TEST(PolicyEngineTest, RegistrationIsIdempotent) {
  PolicyEngine& engine = PolicyEngine::global();
  const std::size_t before = engine.sched_policies().size();
  register_builtin_sched_policies(engine);  // second call: first wins
  EXPECT_EQ(engine.sched_policies().size(), before);
}

TEST(SchedPolicyTest, FcfsAlwaysStartsAndNeverBackfills) {
  FcfsPolicy fcfs;
  SchedView view;
  const flux::Job job = make_job(2, 1000.0);
  EXPECT_EQ(fcfs.admit(view, job, nullptr), SchedHint::Start);
  EXPECT_FALSE(fcfs.backfill());
  EXPECT_DOUBLE_EQ(fcfs.admission_estimate_w(view, job), 0.0);
}

TEST(SchedPolicyTest, PowerAwareAdmissionLedgerMath) {
  PowerAwarePolicy p;
  SchedView view;
  view.cluster_bound_w = 4000.0;
  const flux::Job job = make_job(2, 1500.0);  // 3000 W estimate

  // Fits under an empty ledger.
  EXPECT_EQ(p.admit(view, job, nullptr), SchedHint::Start);
  EXPECT_DOUBLE_EQ(p.admission_estimate_w(view, job), 3000.0);

  // 3000 admitted + 3000 > 4000: head-of-line hold.
  view.admitted_power_w = 3000.0;
  view.admitted_jobs = 1;
  EXPECT_EQ(p.admit(view, job, nullptr), SchedHint::HoldQueue);

  // bound <= 0 disables admission control entirely.
  view.cluster_bound_w = 0.0;
  EXPECT_EQ(p.admit(view, job, nullptr), SchedHint::Start);
}

TEST(SchedPolicyTest, PowerAwareOversizedJobOnlyAloneOnEmptyLedger) {
  PowerAwarePolicy p;
  SchedView view;
  view.cluster_bound_w = 2000.0;
  const flux::Job whale = make_job(2, 1500.0);  // 3000 W >= bound
  EXPECT_EQ(p.admit(view, whale, nullptr), SchedHint::Start);
  view.admitted_jobs = 1;
  view.admitted_power_w = 500.0;
  EXPECT_EQ(p.admit(view, whale, nullptr), SchedHint::HoldQueue);
}

TEST(SchedPolicyTest, PowerAwareEasyReservesBlockedHeadPower) {
  PowerAwareEasyPolicy p;
  EXPECT_TRUE(p.backfill());
  SchedView view;
  view.cluster_bound_w = 4000.0;
  const flux::Job head = make_job(2, 1000.0);  // 2000 W reservation
  const flux::Job young = make_job(1, 1500.0);

  // No blocked head: 1500 fits under 4000.
  EXPECT_EQ(p.admit(view, young, nullptr), SchedHint::Start);
  // Head blocked on nodes: its 2000 W is reserved. 2000 + 1500 <= 4000
  // still fits; a second such job would not.
  EXPECT_EQ(p.admit(view, young, &head), SchedHint::Start);
  view.admitted_power_w = 1500.0;
  view.admitted_jobs = 1;
  EXPECT_EQ(p.admit(view, young, &head), SchedHint::SkipJob);
  // Skip (not hold): the scan continues behind a power-blocked job.
}

TEST(SchedPolicyTest, EcoModeSelfCapFromJobspec) {
  EcoModePolicy eco;
  flux::Job job = make_job(1, 2000.0);
  // Not enrolled: no self-cap.
  EXPECT_DOUBLE_EQ(eco.requested_node_power_w(job), 0.0);
  job.spec.attributes["eco_tolerance"] = 0.25;
  EXPECT_DOUBLE_EQ(eco.requested_node_power_w(job), 2000.0 * 0.75);
  // Tolerance clamps at 0.6 — a job cannot starve itself to nothing.
  job.spec.attributes["eco_tolerance"] = 0.95;
  EXPECT_DOUBLE_EQ(eco.requested_node_power_w(job), 2000.0 * 0.4);
  // No estimate attribute: nothing to derive a cap from.
  flux::Job blind;
  blind.spec.nnodes = 1;
  blind.spec.attributes = util::Json::object();
  blind.spec.attributes["eco_tolerance"] = 0.25;
  EXPECT_DOUBLE_EQ(eco.requested_node_power_w(blind), 0.0);
}

TEST(SchedPolicyTest, JobPowerEstimateFallsBackToNodePeak) {
  SchedView view;
  view.node_peak_w = 3050.0;
  const flux::Job no_estimate = make_job(2, 0.0);
  EXPECT_DOUBLE_EQ(job_power_estimate_w(view, no_estimate), 6100.0);
  const flux::Job with_estimate = make_job(2, 1200.0);
  EXPECT_DOUBLE_EQ(job_power_estimate_w(view, with_estimate), 2400.0);
}

TEST(StateCodecTest, LittleEndianFixedWidth) {
  std::vector<std::uint8_t> out;
  state_put_u32(out, 0x04030201u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 0x01);
  EXPECT_EQ(out[3], 0x04);
  out.clear();
  state_put_f64(out, 1.0);  // IEEE bits 0x3ff0000000000000
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(out[7], 0x3f);
  EXPECT_EQ(out[6], 0xf0);
  out.clear();
  state_put_bool(out, true);
  state_put_bool(out, false);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
}

}  // namespace
}  // namespace fluxpower::policy
