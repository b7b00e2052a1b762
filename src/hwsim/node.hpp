// node.hpp — compute-node model and the vendor-neutral capping rule.
//
// A Node owns the state every platform shares (hostname, workload demand,
// energy meter, sensor noise, cap registers) and the one capping rule the
// vendors share: each CPU/GPU domain has a power envelope (idle floor,
// minimum cap, maximum); a cap write is checked, clamped into it and
// stored; a domain's grant is its demand limited by its cap, never below
// idle. A vendor subclass describes its envelope and keeps only what its
// hardware does differently: which sensors exist (read_sensors) and, on
// the IBM AC922, the OPAL node dial, NVML's failures and the OCC's grant
// rule. All power-management software in this repository — Variorum, the
// monitor, the manager — touches hardware exclusively through this
// interface.
#pragma once

#include <memory>
#include <string>

#include "hwsim/energy_meter.hpp"
#include "hwsim/types.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace fluxpower::hwsim {

class Node;

/// Fault-injection hook installed on a node (see src/faultsim). The tap sits
/// between the public telemetry/capping API and the vendor implementation:
/// every sensor sweep passes through on_sample (dropouts, stuck-at readings,
/// dead sensors) and every cap write may be failed transiently. A null tap —
/// the default — is a perfect machine and costs one pointer compare.
class NodeFaultTap {
 public:
  virtual ~NodeFaultTap() = default;

  /// Mutate a freshly read sample in place (clear domains, freeze values)
  /// and set sample.sensor_fault when the sweep should read as failed.
  virtual void on_sample(Node& node, PowerSample& sample) = 0;

  /// Return true to fail the pending cap write with CapStatus::IoError.
  virtual bool fail_cap_write(Node& node, DomainType domain) = 0;
};

class Node {
 protected:
  /// Power envelope of one CPU or GPU domain, as its firmware defines it.
  struct DomainRange {
    double idle_w = 0.0;     ///< draw at zero load; no cap grants less
    double min_cap_w = 0.0;  ///< lowest cap the firmware accepts
    double max_w = 0.0;      ///< uncapped maximum draw
    bool cappable = true;    ///< false: no cap interface (Unsupported)
  };

  /// What a vendor tells the shared rule about its node.
  struct Envelope {
    int sockets = 0;
    DomainRange cpu;
    int gpus = 0;  ///< GPUs, or GCDs on AMD
    DomainRange gpu;
    double mem_idle_w = 0.0;
    double mem_max_w = 0.0;
    double base_w = 0.0;  ///< fans, board, uncore; constant
    /// Capping exists in hardware but the firmware refuses user writes
    /// (PermissionDenied).
    bool caps_fused_off = false;
  };

 public:
  /// The idle floor (each domain's draw at zero load) and its low-power
  /// variant are fixed for the node's lifetime, so they are computed once
  /// here. Per-domain arrays are inline, so socket counts outside
  /// [0, kMaxSockets] and GPU counts outside [0, kMaxGpuSensors] throw
  /// std::invalid_argument naming `config`. The vendor constructor calls
  /// refresh(true) once its own state exists.
  Node(sim::Simulation& sim, std::string hostname, const char* config,
       const Envelope& envelope);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& hostname() const noexcept { return hostname_; }
  sim::Simulation& simulation() noexcept { return sim_; }

  int socket_count() const noexcept {
    return static_cast<int>(idle_floor_.cpu_w.size());
  }
  int gpu_count() const noexcept {
    return static_cast<int>(idle_floor_.gpu_w.size());
  }
  virtual const char* vendor_name() const = 0;

  /// Idle power floors (absolute watts at zero load).
  const LoadDemand& idle_demand() const noexcept { return idle_floor_; }

  // -- Workload interface ---------------------------------------------------

  /// Set the instantaneous demand. Advances the energy integral, and
  /// recomputes grants when the floored demand differs from the current
  /// one. Demands below the idle floor are raised to it.
  void set_demand(const LoadDemand& demand);

  /// Return the node to idle draw.
  void idle();

  const LoadDemand& demand() const noexcept { return demand_; }

  /// Power granted per domain under the active caps — the workload model
  /// reads this to derive its progress rate.
  const Grants& grants() const noexcept { return grants_; }

  /// Instantaneous total node draw (watts), including base power.
  double node_draw_w() const noexcept { return draw_w_; }

  /// Exact energy consumed since construction (or last reset_energy).
  double energy_joules() const { return meter_.joules(sim_.now()); }
  void reset_energy() { meter_.reset(sim_.now()); }

  // -- Low-power (idle) state -------------------------------------------------
  // Real clusters park unallocated nodes in deeper C-states with fans
  // spun down; the power manager's idle-node policy drives this. In the
  // low-power state the node's idle floors are scaled by
  // `low_power_factor()`; load demands still raise draw normally (waking
  // the node is instantaneous in the model).
  void set_low_power_state(bool enabled) {
    if (low_power_ == enabled) return;
    low_power_ = enabled;
    refresh(false);
  }
  bool low_power_state() const noexcept { return low_power_; }
  static constexpr double low_power_factor() { return 0.62; }

  // -- Host-side interference accounting -------------------------------------
  // Telemetry agents and OS daemons steal CPU time from the application on
  // this node. Producers (e.g. the monitor's node-agent) deposit stolen
  // seconds here; the workload runtime drains them and loses that much
  // progress. This is how the monitor's measurable overhead (§IV-B) arises.
  void add_stolen_time(double seconds) { stolen_s_ += seconds; }
  double drain_stolen_time() {
    const double s = stolen_s_;
    stolen_s_ = 0.0;
    return s;
  }
  /// Undrained stolen seconds (read-only; the twin codec digests this —
  /// pending interference is sim state the runtime has not yet consumed).
  double stolen_time() const noexcept { return stolen_s_; }

  // -- Telemetry ------------------------------------------------------------

  /// Read the node's power sensors. Which fields are populated is
  /// vendor-specific. Sensor readings include multiplicative noise of
  /// `sensor_noise` (relative sigma) when enabled. The installed fault tap
  /// (if any) is applied to the vendor's reading before it is returned.
  PowerSample sample();

  /// Relative sensor noise sigma (0 disables). Sensors on real machines
  /// jitter at the ~0.5% level; tables integrate the exact meter instead.
  void set_sensor_noise(double sigma) { sensor_noise_ = sigma; }
  void reseed_sensor_noise(std::uint64_t seed) { rng_.reseed(seed); }
  /// Sensor-noise substream position (twin codec: the next noisy read of a
  /// restored replica must draw the same deviate as the original run).
  const util::Rng& sensor_rng() const noexcept { return rng_; }

  // -- Fault injection -------------------------------------------------------

  /// Install (or, with nullptr, remove) the fault tap. The tap must outlive
  /// the attachment; src/faultsim's FaultPlane detaches itself on
  /// destruction.
  void set_fault_tap(NodeFaultTap* tap) noexcept { fault_tap_ = tap; }
  NodeFaultTap* fault_tap() const noexcept { return fault_tap_; }

  /// Lifetime count of cap writes failed by the tap with IoError.
  std::uint64_t cap_write_faults() const noexcept { return cap_write_faults_; }

  // -- Capping --------------------------------------------------------------
  // Public entry points are non-virtual: they consult the fault tap (a
  // faulted write returns CapStatus::IoError without reaching the firmware)
  // and then apply the shared rule or the vendor's override below.

  /// Node-level power cap (direct hardware support on IBM AC922 only).
  CapResult set_node_power_cap(double watts);
  CapResult clear_node_power_cap();
  std::optional<double> node_power_cap() const { return node_cap_; }

  /// Per-GPU power cap (NVML on Lassen; ROCm-SMI on Tioga, fused off).
  CapResult set_gpu_power_cap(int gpu, double watts);
  std::optional<double> gpu_power_cap(int gpu) const;

  /// Per-socket cap (RAPL-style; used by best-effort node capping on
  /// platforms without a node dial).
  CapResult set_socket_power_cap(int socket, double watts);
  std::optional<double> socket_power_cap(int socket) const;

 protected:
  /// A cap request against [min_w, max_w]: Ok when it lies inside, else
  /// Clamped to the bound it crossed. A non-finite request (±NaN, ±inf) is
  /// OutOfRange with no applied value; callers return it before touching
  /// any register.
  static CapResult clamp_cap(double watts, double min_w, double max_w);

  /// Demand + caps -> granted watts per domain: each CPU/GPU domain gets
  /// its demand limited by its cap (its maximum when uncapped) but never
  /// less than idle; memory is limited by its maximum; base power is
  /// constant.
  virtual Grants compute_grants(const LoadDemand& demand) const;

  /// Vendor sensor sweep (see sample() for the public contract).
  virtual PowerSample read_sensors() = 0;

  /// Node-dial writes; the defaults report Unsupported.
  virtual CapResult do_set_node_power_cap(double watts);
  virtual CapResult do_clear_node_power_cap();
  /// GPU cap write; the default is the shared rule (write_domain_cap).
  virtual CapResult do_set_gpu_power_cap(int gpu, double watts);

  /// Re-floor the request against the active idle floor, recompute grants
  /// when the floored demand or (per `caps_changed`) a cap register moved,
  /// and advance the energy meter — the meter advances on every call, since
  /// splitting its integral changes float rounding. Every cap write ends
  /// here, passing whether any register (cap, wedge bit) actually changed.
  void refresh(bool caps_changed);

  /// Write a cap register and refresh (recomputing grants only if the
  /// register's value moved).
  void store_cap(std::optional<double>& reg, double watts) {
    const bool changed = reg != watts;
    reg = watts;
    refresh(changed);
  }

  double noisy(double w);

  sim::Simulation& sim_;
  std::string hostname_;
  LoadDemand requested_;  ///< raw workload request (pre-flooring)
  LoadDemand demand_;     ///< request floored at the active idle floor
  Grants grants_;         ///< compute_grants(demand_) under the active caps
  double draw_w_ = 0.0;   ///< grants_.total()
  LoadDemand idle_floor_;
  LoadDemand low_power_floor_;  ///< idle_floor_ x low_power_factor()
  EnergyMeter meter_;
  util::Rng rng_;
  double sensor_noise_ = 0.0;
  std::optional<double> node_cap_;
  std::vector<std::optional<double>> gpu_caps_;
  std::vector<std::optional<double>> socket_caps_;
  double stolen_s_ = 0.0;
  bool low_power_ = false;
  NodeFaultTap* fault_tap_ = nullptr;
  std::uint64_t cap_write_faults_ = 0;

 private:
  /// True (and counted) when the fault tap fails this cap write.
  bool cap_write_faulted(DomainType domain);

  /// The shared socket/GPU cap write, checked in this order: no cap
  /// interface -> Unsupported, bad index -> OutOfRange, fused off ->
  /// PermissionDenied, else clamped into [min_cap_w, max_w] and stored.
  CapResult write_domain_cap(const DomainRange& range,
                             std::vector<std::optional<double>>& regs,
                             int index, double watts);

  Envelope envelope_;
};

}  // namespace fluxpower::hwsim
