#include "hwsim/cray_ex235a.hpp"

#include <stdexcept>

namespace fluxpower::hwsim {

CrayEx235aNode::CrayEx235aNode(sim::Simulation& sim, std::string hostname,
                               CrayEx235aConfig config)
    : Node(sim, std::move(hostname), "CrayEx235aConfig",
           {.sockets = config.sockets,
            // The firmware clamps caps down to the idle draw.
            .cpu = {config.cpu_idle_w, config.cpu_idle_w, config.cpu_max_w},
            .gpus = config.gcds,
            .gpu = {config.gcd_idle_w, config.gcd_idle_w, config.gcd_max_w},
            .mem_idle_w = config.mem_idle_w,
            .mem_max_w = config.mem_max_w,
            .base_w = config.base_w,
            .caps_fused_off = !config.capping_enabled_for_users}),
      config_(config) {
  if (config_.gcds % 2 != 0) {
    // Telemetry is per OAM; half a module has no sensor.
    throw std::invalid_argument("CrayEx235aConfig: " +
                                std::to_string(config_.gcds) +
                                " GCDs is odd (2 GCDs per OAM)");
  }
  refresh(true);  // initial grants at idle draw
}

PowerSample CrayEx235aNode::read_sensors() {
  PowerSample s;
  s.timestamp_s = sim_.now();
  s.hostname = hostname_;
  for (double w : grants_.cpu_w) s.cpu_w.push_back(noisy(w));

  // Telemetry is per OAM: the two GCDs behind each module share a sensor.
  for (int oam = 0; oam < oam_count(); ++oam) {
    const std::size_t a = static_cast<std::size_t>(2 * oam);
    const std::size_t b = a + 1;
    double w = 0.0;
    if (a < grants_.gpu_w.size()) w += grants_.gpu_w[a];
    if (b < grants_.gpu_w.size()) w += grants_.gpu_w[b];
    s.gpu_w.push_back(noisy(w));
  }
  s.gpu_is_oam = true;

  // No node or memory sensor exists. The node figure is a conservative
  // estimate: measured CPU + measured OAMs. Memory and base power are
  // physically drawn (grants include them) but invisible here — exactly
  // the gap the paper describes for Tioga.
  s.mem_w = std::nullopt;
  s.node_w = std::nullopt;
  double est = 0.0;
  for (double w : s.cpu_w) est += w;
  for (double w : s.gpu_w) est += w;
  s.node_estimate_w = est;
  return s;
}

}  // namespace fluxpower::hwsim
