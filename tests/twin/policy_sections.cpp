// policy_sections.cpp — print the twin's manager and policy sections for
// every node policy.
//
// Runs one fixed 4-node Lassen twin (4800 W cluster bound, progress
// reporting on, a gemm job and a quicksilver job) once per NodePolicy value
// and captures its state at t = 30, 120 and 400 s. For each capture it
// prints the MGR! and POL! sections: their FNV-1a digest and every payload
// byte in hex, 32 bytes a line. Those two sections hold the node-level
// enforcement state (limit, budget, retry ladder, FPP phase, progress
// rate/cap/hold), each rank's policy name and the policy's state blob.
//
// The ctest golden_twin_policy_sections compares this output byte for byte
// with tests/golden/twin_policy_sections.txt, so a change in how any node
// policy enforces, times or serializes its state shows up as a diff.
//
//   ./twin_policy_sections > tests/golden/twin_policy_sections.txt
#include <cstdint>
#include <cstdio>

#include "manager/policy.hpp"
#include "twin/probe.hpp"
#include "twin/session.hpp"

namespace {

using namespace fluxpower;

twin::TwinSpec make_spec(manager::NodePolicy policy) {
  twin::TwinSpec spec;
  spec.scenario.platform = hwsim::Platform::LassenIbmAc922;
  spec.scenario.nodes = 4;
  spec.scenario.seed = 11;
  spec.scenario.load_manager = true;
  spec.scenario.manager.cluster_power_bound_w = 4800.0;
  spec.scenario.manager.node_policy = policy;
  spec.scenario.report_progress = true;
  spec.max_time_s = 1200.0;

  experiments::JobRequest gemm;
  gemm.kind = apps::AppKind::Gemm;
  gemm.nnodes = 2;
  gemm.work_scale = 3.0;
  spec.jobs.push_back(gemm);

  experiments::JobRequest qs;
  qs.kind = apps::AppKind::Quicksilver;
  qs.nnodes = 2;
  qs.work_scale = 2.0;
  qs.submit_time_s = 10.0;
  spec.jobs.push_back(qs);
  return spec;
}

void print_section(const char* label, const twin::StateSection* s) {
  if (s == nullptr) {
    std::printf("  %s missing\n", label);
    return;
  }
  std::printf("  %s digest=%016llx bytes=%zu\n", label,
              static_cast<unsigned long long>(s->digest), s->bytes.size());
  for (std::size_t i = 0; i < s->bytes.size(); i += 32) {
    std::printf("    ");
    for (std::size_t j = i; j < s->bytes.size() && j < i + 32; ++j) {
      std::printf("%02x", s->bytes[j]);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  using manager::NodePolicy;
  const NodePolicy policies[] = {
      NodePolicy::None, NodePolicy::IbmDefaultNodeCap,
      NodePolicy::DirectGpuBudget, NodePolicy::Fpp,
      NodePolicy::ProgressBased, NodePolicy::PiBound};
  for (NodePolicy p : policies) {
    twin::TwinSession session(make_spec(p));
    for (double t : {30.0, 120.0, 400.0}) {
      session.advance_to(t);
      const twin::StateImage image = twin::capture_state(session.scenario());
      std::printf("policy=%s t=%g now=%a\n", manager::node_policy_name(p), t,
                  session.now());
      print_section("MGR!", image.find(twin::kTagMgr));
      print_section("POL!", image.find(twin::kTagPol));
    }
  }
  return 0;
}
