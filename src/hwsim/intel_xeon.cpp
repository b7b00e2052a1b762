#include "hwsim/intel_xeon.hpp"

namespace fluxpower::hwsim {

IntelXeonNode::IntelXeonNode(sim::Simulation& sim, std::string hostname,
                             IntelXeonConfig config)
    : Node(sim, std::move(hostname), "IntelXeonConfig",
           {.sockets = config.sockets,
            .cpu = {config.cpu_idle_w, config.cpu_min_cap_w, config.cpu_max_w},
            .gpus = config.gpus,
            .gpu = {config.gpu_idle_w, config.gpu_min_cap_w, config.gpu_max_w},
            .mem_idle_w = config.mem_idle_w,
            .mem_max_w = config.mem_max_w,
            .base_w = config.base_w}),
      config_(config) {
  refresh(true);  // initial grants at idle draw
}

PowerSample IntelXeonNode::read_sensors() {
  PowerSample s;
  s.timestamp_s = sim_.now();
  s.hostname = hostname_;
  for (double w : grants_.cpu_w) s.cpu_w.push_back(noisy(w));
  for (double w : grants_.gpu_w) s.gpu_w.push_back(noisy(w));
  s.mem_w = noisy(grants_.mem_w);  // DRAM RAPL domain
  s.node_w = std::nullopt;         // no node sensor on this platform
  double est = *s.mem_w;
  for (double w : s.cpu_w) est += w;
  for (double w : s.gpu_w) est += w;
  s.node_estimate_w = est;
  return s;
}

}  // namespace fluxpower::hwsim
