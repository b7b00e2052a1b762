#include "hwsim/node.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace fluxpower::hwsim {

const char* domain_type_name(DomainType type) noexcept {
  switch (type) {
    case DomainType::Node: return "node";
    case DomainType::CpuSocket: return "cpu";
    case DomainType::Memory: return "mem";
    case DomainType::Gpu: return "gpu";
    case DomainType::Oam: return "oam";
  }
  return "unknown";
}

const char* cap_status_name(CapStatus status) noexcept {
  switch (status) {
    case CapStatus::Ok: return "ok";
    case CapStatus::Clamped: return "clamped";
    case CapStatus::OutOfRange: return "out-of-range";
    case CapStatus::Unsupported: return "unsupported";
    case CapStatus::PermissionDenied: return "permission-denied";
    case CapStatus::IoError: return "io-error";
  }
  return "unknown";
}

double Grants::gpu_total() const {
  return std::accumulate(gpu_w.begin(), gpu_w.end(), 0.0);
}

double Grants::cpu_total() const {
  return std::accumulate(cpu_w.begin(), cpu_w.end(), 0.0);
}

double Grants::total() const {
  return cpu_total() + gpu_total() + mem_w + base_w;
}

namespace {

/// Each domain's draw at zero load. Per-domain arrays are inline, so counts
/// beyond their capacity are rejected here, naming the vendor `config`.
LoadDemand make_idle_floor(const char* config, int sockets, double cpu_idle_w,
                           int gpus, double gpu_idle_w, double mem_idle_w) {
  auto checked = [config](const char* what, int count, std::size_t max) {
    if (count < 0 || static_cast<std::size_t>(count) > max) {
      throw std::invalid_argument(
          std::string(config) + ": " + std::to_string(count) + " " + what +
          " is outside [0, " + std::to_string(max) + "]");
    }
    return static_cast<std::size_t>(count);
  };
  LoadDemand d;
  d.cpu_w.assign(checked("sockets", sockets, kMaxSockets), cpu_idle_w);
  d.gpu_w.assign(checked("GPUs", gpus, kMaxGpuSensors), gpu_idle_w);
  d.mem_w = mem_idle_w;
  return d;
}

LoadDemand scaled(LoadDemand d, double factor) {
  for (double& w : d.cpu_w) w *= factor;
  for (double& w : d.gpu_w) w *= factor;
  d.mem_w *= factor;
  return d;
}

/// One domain kind's grants: demand limited by the cap (the maximum when
/// uncapped), never below idle. `demand` is floored, so it has exactly one
/// entry per cap register.
template <class Vec>
void grant_domains(const Vec& demand,
                   const std::vector<std::optional<double>>& caps,
                   double idle_w, double max_w, Vec& out) {
  out.resize(demand.size());
  for (std::size_t i = 0; i < demand.size(); ++i) {
    double limit = max_w;
    if (caps[i]) limit = std::min(limit, *caps[i]);
    out[i] = std::min(demand[i], std::max(limit, idle_w));
  }
}

}  // namespace

Node::Node(sim::Simulation& sim, std::string hostname, const char* config,
           const Envelope& envelope)
    : sim_(sim), hostname_(std::move(hostname)),
      idle_floor_(make_idle_floor(config, envelope.sockets,
                                  envelope.cpu.idle_w, envelope.gpus,
                                  envelope.gpu.idle_w, envelope.mem_idle_w)),
      low_power_floor_(scaled(idle_floor_, low_power_factor())),
      rng_(std::hash<std::string>{}(hostname_)),
      gpu_caps_(idle_floor_.gpu_w.size()),
      socket_caps_(idle_floor_.cpu_w.size()),
      envelope_(envelope) {}

void Node::set_demand(const LoadDemand& demand) {
  requested_ = demand;
  refresh(false);
}

void Node::idle() { set_demand(LoadDemand{}); }

void Node::refresh(bool caps_changed) {
  // Re-floor the raw request against the current idle floor (which depends
  // on the low-power state). Grants are a pure function of the floored
  // demand and the cap registers, so they are recomputed only when one of
  // those moved.
  LoadDemand d = requested_;
  const LoadDemand& floor = low_power_ ? low_power_floor_ : idle_floor_;
  d.cpu_w.resize(floor.cpu_w.size(), 0.0);
  d.gpu_w.resize(floor.gpu_w.size(), 0.0);
  for (std::size_t i = 0; i < d.cpu_w.size(); ++i) {
    d.cpu_w[i] = std::max(d.cpu_w[i], floor.cpu_w[i]);
  }
  for (std::size_t i = 0; i < d.gpu_w.size(); ++i) {
    d.gpu_w[i] = std::max(d.gpu_w[i], floor.gpu_w[i]);
  }
  d.mem_w = std::max(d.mem_w, floor.mem_w);
  if (caps_changed || !(d == demand_)) {
    demand_ = d;
    grants_ = compute_grants(demand_);
    draw_w_ = grants_.total();
  }
  meter_.update(sim_.now(), draw_w_);
}

double Node::noisy(double w) {
  if (sensor_noise_ <= 0.0) return w;
  return std::max(0.0, w * (1.0 + rng_.normal(0.0, sensor_noise_)));
}

PowerSample Node::sample() {
  PowerSample s = read_sensors();
  if (fault_tap_ != nullptr) fault_tap_->on_sample(*this, s);
  return s;
}

bool Node::cap_write_faulted(DomainType domain) {
  if (fault_tap_ == nullptr || !fault_tap_->fail_cap_write(*this, domain)) {
    return false;
  }
  ++cap_write_faults_;
  return true;
}

CapResult Node::set_node_power_cap(double watts) {
  if (cap_write_faulted(DomainType::Node)) return {CapStatus::IoError, {}};
  return do_set_node_power_cap(watts);
}

CapResult Node::clear_node_power_cap() {
  if (cap_write_faulted(DomainType::Node)) return {CapStatus::IoError, {}};
  return do_clear_node_power_cap();
}

CapResult Node::set_gpu_power_cap(int gpu, double watts) {
  if (cap_write_faulted(DomainType::Gpu)) return {CapStatus::IoError, {}};
  return do_set_gpu_power_cap(gpu, watts);
}

CapResult Node::set_socket_power_cap(int socket, double watts) {
  if (cap_write_faulted(DomainType::CpuSocket)) {
    return {CapStatus::IoError, {}};
  }
  return write_domain_cap(envelope_.cpu, socket_caps_, socket, watts);
}

CapResult Node::clamp_cap(double watts, double min_w, double max_w) {
  if (!std::isfinite(watts)) return {CapStatus::OutOfRange, {}};
  if (watts < min_w) return {CapStatus::Clamped, min_w};
  if (watts > max_w) return {CapStatus::Clamped, max_w};
  return {CapStatus::Ok, watts};
}

CapResult Node::write_domain_cap(const DomainRange& range,
                                 std::vector<std::optional<double>>& regs,
                                 int index, double watts) {
  if (!range.cappable) return {CapStatus::Unsupported, {}};
  if (index < 0 || static_cast<std::size_t>(index) >= regs.size()) {
    return {CapStatus::OutOfRange, {}};
  }
  if (envelope_.caps_fused_off) return {CapStatus::PermissionDenied, {}};
  const CapResult result = clamp_cap(watts, range.min_cap_w, range.max_w);
  if (!result.applied_watts) return result;
  store_cap(regs[static_cast<std::size_t>(index)], *result.applied_watts);
  return result;
}

CapResult Node::do_set_node_power_cap(double /*watts*/) {
  return {CapStatus::Unsupported, std::nullopt};
}

CapResult Node::do_clear_node_power_cap() {
  return {CapStatus::Unsupported, std::nullopt};
}

CapResult Node::do_set_gpu_power_cap(int gpu, double watts) {
  return write_domain_cap(envelope_.gpu, gpu_caps_, gpu, watts);
}

std::optional<double> Node::gpu_power_cap(int gpu) const {
  if (gpu < 0 || static_cast<std::size_t>(gpu) >= gpu_caps_.size()) {
    return std::nullopt;
  }
  return gpu_caps_[static_cast<std::size_t>(gpu)];
}

std::optional<double> Node::socket_power_cap(int socket) const {
  if (socket < 0 || static_cast<std::size_t>(socket) >= socket_caps_.size()) {
    return std::nullopt;
  }
  return socket_caps_[static_cast<std::size_t>(socket)];
}

Grants Node::compute_grants(const LoadDemand& demand) const {
  Grants g;
  g.base_w = envelope_.base_w;
  g.mem_w = std::min(demand.mem_w, envelope_.mem_max_w);
  grant_domains(demand.cpu_w, socket_caps_, envelope_.cpu.idle_w,
                envelope_.cpu.max_w, g.cpu_w);
  grant_domains(demand.gpu_w, gpu_caps_, envelope_.gpu.idle_w,
                envelope_.gpu.max_w, g.gpu_w);
  return g;
}

}  // namespace fluxpower::hwsim
