// Dispatch-equivalence property suite for the policy plane: for 50 seeds,
// in calm and chaotic weather, each built-in scheduler policy named in
// ScenarioConfig::sched_policy must produce a run BYTE-IDENTICAL to the
// same name installed on the live scheduler after construction
// (Scheduler::set_policy_by_name) — hexfloat renders of the full result AND
// the twin's mid-run state-section digests (POL included). Node policies
// cycle through all four plugins so their dispatch path is covered too.
// The test keeps its established name so its ids stay stable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>

#include "experiments/scenario.hpp"
#include "twin/probe.hpp"

namespace fluxpower {
namespace {

using experiments::JobRequest;
using experiments::Scenario;
using experiments::ScenarioConfig;
using experiments::ScenarioResult;

const char* sched_pick(std::uint64_t seed) {
  switch (seed % 3) {
    case 0: return "fcfs";
    case 1: return "easy-backfill";
    default: return "power-aware";
  }
}

manager::NodePolicy node_pick(std::uint64_t seed) {
  switch (seed % 4) {
    case 0: return manager::NodePolicy::IbmDefaultNodeCap;
    case 1: return manager::NodePolicy::DirectGpuBudget;
    case 2: return manager::NodePolicy::Fpp;
    default: return manager::NodePolicy::ProgressBased;
  }
}

ScenarioConfig make_config(std::uint64_t seed, bool chaos) {
  ScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.seed = 42;  // fixed workload noise; the case seed drives the weather
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 4800.0;
  cfg.manager.static_node_cap_w = 1950.0;
  cfg.manager.node_policy = node_pick(seed);
  cfg.manager.limit_refresh_s = 20.0;
  cfg.report_progress =
      cfg.manager.node_policy == manager::NodePolicy::ProgressBased;
  if (chaos) {
    faultsim::FaultPlaneConfig f;
    f.seed = seed;
    f.msg_drop_rate = 0.06;
    f.msg_dup_rate = 0.02;
    f.msg_delay_rate = 0.06;
    f.node_mtbf_s = 300.0;
    f.node_reboot_s = 20.0;
    f.sensor_dropout_rate = 0.06;
    f.sensor_stuck_rate = 0.02;
    f.sensor_stuck_duration_s = 12.0;
    f.cap_write_failure_rate = 0.15;
    cfg.faults = f;
  }
  return cfg;
}

void submit_jobs(Scenario& s) {
  JobRequest gemm;
  gemm.kind = apps::AppKind::Gemm;
  gemm.nnodes = 3;
  gemm.work_scale = 0.6;
  s.submit(gemm);
  JobRequest lammps;
  lammps.kind = apps::AppKind::Lammps;
  lammps.nnodes = 2;
  lammps.work_scale = 0.7;
  lammps.submit_time_s = 20.0;
  s.submit(lammps);
}

void hex(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a,", v);
  out += buf;
}

std::string render(const ScenarioResult& r) {
  std::string out;
  out.reserve(1 << 14);
  for (const experiments::JobResult& j : r.jobs) {
    out += "job " + std::to_string(j.id) + " " + j.app + " ";
    hex(out, j.t_submit);
    hex(out, j.t_start);
    hex(out, j.t_end);
    hex(out, j.runtime_s);
    hex(out, j.avg_node_power_w);
    hex(out, j.exact_avg_node_energy_j);
    out += "\n";
  }
  hex(out, r.makespan_s);
  hex(out, r.total_energy_j);
  hex(out, r.max_cluster_power_w);
  hex(out, r.avg_cluster_power_w);
  out += "\n";
  for (const auto& [t, w] : r.cluster_timeline) {
    hex(out, t);
    hex(out, w);
  }
  return out;
}

struct RunOutcome {
  std::string render;
  std::string section_digests;  ///< "TAG!:hex " per section at t_probe
};

RunOutcome run_one(std::uint64_t seed, bool chaos, bool from_config) {
  ScenarioConfig cfg = make_config(seed, chaos);
  if (from_config) cfg.sched_policy = sched_pick(seed);
  Scenario s(cfg);
  if (!from_config) {
    s.instance().scheduler().set_policy_by_name(sched_pick(seed));
  }
  submit_jobs(s);

  // Mid-run probe: both dispatch paths must agree on every state section
  // (POL included) at the same instant, not just on the final result.
  s.advance_until(90.0, 1200.0);
  const twin::StateImage image = twin::capture_state(s);
  RunOutcome out;
  for (const twin::StateSection& sec : image.sections) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s:%016llx ",
                  twin::fourcc_name(sec.tag).c_str(),
                  static_cast<unsigned long long>(sec.digest));
    out.section_digests += buf;
  }
  out.render = render(s.finish(1200.0));
  return out;
}

class RefactorEquiv
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(RefactorEquiv, NameDispatchIsByteIdenticalToEnumDispatch) {
  const auto [seed, chaos] = GetParam();
  const RunOutcome runtime = run_one(seed, chaos, /*from_config=*/false);
  const RunOutcome config = run_one(seed, chaos, /*from_config=*/true);
  EXPECT_EQ(runtime.section_digests, config.section_digests)
      << "seed " << seed << (chaos ? " chaos" : " calm") << " policy "
      << sched_pick(seed);
  EXPECT_EQ(runtime.render, config.render)
      << "seed " << seed << (chaos ? " chaos" : " calm") << " policy "
      << sched_pick(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RefactorEquiv,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 51),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<RefactorEquiv::ParamType>& info) {
      return (std::get<1>(info.param) ? std::string("chaos") : "calm") +
             std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace fluxpower
