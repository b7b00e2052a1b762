#include "hwsim/arm_grace.hpp"

namespace fluxpower::hwsim {

ArmGraceNode::ArmGraceNode(sim::Simulation& sim, std::string hostname,
                           ArmGraceConfig config)
    : Node(sim, std::move(hostname), "ArmGraceConfig",
           {.sockets = config.sockets,
            .cpu = {config.cpu_idle_w, config.cpu_min_cap_w, config.cpu_max_w},
            .gpu = {.cappable = false},  // no discrete GPUs
            .mem_idle_w = config.mem_idle_w,
            .mem_max_w = config.mem_max_w,
            .base_w = config.base_w}),
      config_(config) {
  refresh(true);  // initial grants at idle draw
}

PowerSample ArmGraceNode::read_sensors() {
  PowerSample s;
  s.timestamp_s = sim_.now();
  s.hostname = hostname_;
  for (double w : grants_.cpu_w) s.cpu_w.push_back(noisy(w));
  s.mem_w = noisy(grants_.mem_w);
  // BMC board-power sensor: direct node reading including base power.
  s.node_w = noisy(grants_.total());
  s.node_estimate_w = std::nullopt;
  return s;
}

}  // namespace fluxpower::hwsim
