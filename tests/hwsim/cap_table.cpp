// cap_table.cpp — print the hwsim capping rule of every platform as a table.
//
// Drives each node model through a fixed sweep: socket, GPU and node cap
// writes (every firmware bound exactly, its float neighbours, values far
// outside, bad indices), node-cap clears, demand changes, low-power
// toggles, AC922 NVML failures and cap-application latency, and cap writes
// failed by a fault tap. Simulated time advances one second before every
// operation, so latency-delayed writes land mid-sweep and the energy
// integral moves. After each operation one line records the call's status
// and applied value, every cap register, the floored demand, the grants,
// the node draw and the energy, all doubles as hexfloat.
//
// The ctest golden_hwsim_cap_table compares this output byte for byte with
// tests/golden/hwsim_cap_table.txt, so a capping or grant rule that drifts
// on any platform shows up as a diff.
//
//   ./hwsim_cap_table > tests/golden/hwsim_cap_table.txt
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "hwsim/arm_grace.hpp"
#include "hwsim/cray_ex235a.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "hwsim/intel_xeon.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace fluxpower;
using hwsim::CapResult;
using hwsim::LoadDemand;
using hwsim::Node;

std::string hex(double w) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", w);
  return buf;
}

std::string hex(const std::optional<double>& w) { return w ? hex(*w) : "-"; }

template <class Vec>
std::string hex_list(const Vec& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += hex(v[i]);
  }
  return out + "]";
}

/// Fails every third cap write it sees, starting with the second.
class EveryThirdWriteFails : public hwsim::NodeFaultTap {
 public:
  void on_sample(Node&, hwsim::PowerSample&) override {}
  bool fail_cap_write(Node&, hwsim::DomainType) override {
    return calls_++ % 3 == 1;
  }

 private:
  int calls_ = 0;
};

/// The bounds a platform's firmware checks, as the sweep's write values.
struct Bounds {
  double cpu_idle, cpu_min_cap, cpu_max;
  double gpu_idle, gpu_min_cap, gpu_max;
  std::vector<double> node;  ///< node-cap values worth hitting exactly
};

/// Each bound exactly, its float neighbours, and values far outside.
std::vector<double> write_values(double idle, double min_cap, double max) {
  const double inf = std::numeric_limits<double>::infinity();
  return {-1.0,
          0.0,
          idle,
          std::nextafter(min_cap, -inf),
          min_cap,
          std::nextafter(min_cap, inf),
          (min_cap + max) / 2.0,
          std::nextafter(max, -inf),
          max,
          std::nextafter(max, inf),
          1e6};
}

class Sweep {
 public:
  Sweep(sim::Simulation& sim, Node& node, hwsim::IbmAc922Node* ac922)
      : sim_(sim), node_(node), ac922_(ac922) {}

  /// Advance one second, run `op`, print the node's state after it. The
  /// floored demand is printed only by the ops that can move it.
  void step(const std::string& what, const std::function<CapResult()>& op,
            bool moves_demand = false) {
    sim_.run_until(sim_.now() + 1.0);
    const CapResult r = op();
    std::printf("%s => %s %s | %s\n", what.c_str(),
                hwsim::cap_status_name(r.status), hex(r.applied_watts).c_str(),
                state(moves_demand).c_str());
  }

  void demand(const std::string& what, const LoadDemand& d) {
    step("demand " + what, [&] {
      node_.set_demand(d);
      return CapResult{};
    }, true);
  }

  void socket(int socket, double w) {
    step("socket " + std::to_string(socket) + " " + hex(w),
         [&] { return node_.set_socket_power_cap(socket, w); });
  }

  void gpu(int gpu, double w) {
    step("gpu " + std::to_string(gpu) + " " + hex(w),
         [&] { return node_.set_gpu_power_cap(gpu, w); });
  }

  void node_cap(double w) {
    step("node " + hex(w), [&] { return node_.set_node_power_cap(w); });
  }

  void clear_node_cap() {
    step("node clear", [&] { return node_.clear_node_power_cap(); });
  }

  void low_power(bool on) {
    step(on ? "low-power on" : "low-power off", [&] {
      node_.set_low_power_state(on);
      return CapResult{};
    }, true);
  }

 private:
  std::string state(bool with_demand) const {
    std::string s = "node=" + hex(node_.node_power_cap()) + " sock=[";
    for (int i = 0; i < node_.socket_count(); ++i) {
      if (i > 0) s += ',';
      s += hex(node_.socket_power_cap(i));
    }
    s += "] gpu=[";
    for (int i = 0; i < node_.gpu_count(); ++i) {
      if (i > 0) s += ',';
      s += hex(node_.gpu_power_cap(i));
    }
    s += "]";
    if (ac922_ != nullptr) {
      s += " wedged=";
      for (int i = 0; i < node_.gpu_count(); ++i) {
        s += ac922_->gpu_cap_wedged(i) ? '1' : '0';
      }
      s += " nvml_failures=" + std::to_string(ac922_->nvml_silent_failures());
    }
    s += " faults=" + std::to_string(node_.cap_write_faults());
    if (with_demand) {
      const LoadDemand& d = node_.demand();
      s += " | demand cpu=" + hex_list(d.cpu_w) + " gpu=" + hex_list(d.gpu_w) +
           " mem=" + hex(d.mem_w);
    }
    const hwsim::Grants& g = node_.grants();
    s += " | grants cpu=" + hex_list(g.cpu_w) + " gpu=" + hex_list(g.gpu_w) +
         " mem=" + hex(g.mem_w) + " base=" + hex(g.base_w);
    s += " | draw=" + hex(node_.node_draw_w()) +
         " energy=" + hex(node_.energy_joules());
    return s;
  }

  sim::Simulation& sim_;
  Node& node_;
  hwsim::IbmAc922Node* ac922_;
};

LoadDemand uniform(const Node& node, double cpu_w, double gpu_w,
                   double mem_w) {
  LoadDemand d;
  d.cpu_w.assign(static_cast<std::size_t>(node.socket_count()), cpu_w);
  d.gpu_w.assign(static_cast<std::size_t>(node.gpu_count()), gpu_w);
  d.mem_w = mem_w;
  return d;
}

void run(const char* label, sim::Simulation& sim, Node& node,
         const Bounds& b) {
  auto* ac922 = dynamic_cast<hwsim::IbmAc922Node*>(&node);
  std::printf("## %s vendor=%s sockets=%d gpus=%d idle cpu=%s gpu=%s mem=%s\n",
              label, node.vendor_name(), node.socket_count(), node.gpu_count(),
              hex_list(node.idle_demand().cpu_w).c_str(),
              hex_list(node.idle_demand().gpu_w).c_str(),
              hex(node.idle_demand().mem_w).c_str());
  Sweep s(sim, node, ac922);
  const int sockets = node.socket_count();
  const int gpus = node.gpu_count();

  s.demand("idle", LoadDemand{});
  s.demand("half", uniform(node, b.cpu_max / 2, b.gpu_max / 2, 60.0));
  // Far above every maximum, so every cap below the maximum binds.
  s.demand("over", uniform(node, 2 * b.cpu_max, 2 * b.gpu_max, 500.0));

  for (double w : write_values(b.cpu_idle, b.cpu_min_cap, b.cpu_max)) {
    s.socket(0, w);
  }
  s.socket(sockets - 1, b.cpu_min_cap);
  s.socket(-1, b.cpu_max);
  s.socket(sockets, b.cpu_max);

  for (double w : write_values(b.gpu_idle, b.gpu_min_cap, b.gpu_max)) {
    s.gpu(0, w);
  }
  s.gpu(gpus - 1, b.gpu_min_cap);
  s.gpu(-1, b.gpu_max);
  s.gpu(gpus, b.gpu_max);

  for (double w : b.node) s.node_cap(w);
  s.clear_node_cap();
  s.clear_node_cap();

  // Identical re-writes, then a demand inside the caps.
  s.socket(0, b.cpu_min_cap);
  s.gpu(0, b.gpu_min_cap);
  s.demand("half", uniform(node, b.cpu_max / 2, b.gpu_max / 2, 60.0));

  s.low_power(true);
  s.demand("idle", LoadDemand{});
  s.socket(0, b.cpu_max);
  s.low_power(false);
  s.demand("over", uniform(node, 2 * b.cpu_max, 2 * b.gpu_max, 500.0));

  // Writes at a low node cap (the AC922 NVML failure window).
  s.node_cap(1100.0);
  for (int i = 0; i < 4; ++i) {
    for (int g = 0; g < gpus; ++g) s.gpu(g, b.gpu_min_cap + 10.0 * i);
  }
  s.clear_node_cap();
  for (int g = 0; g < gpus; ++g) s.gpu(g, b.gpu_max);

  EveryThirdWriteFails tap;
  node.set_fault_tap(&tap);
  for (int i = 0; i < 3; ++i) {
    s.socket(0, b.cpu_min_cap + i);
    s.gpu(0, b.gpu_min_cap + i);
    s.node_cap(2000.0 + i);
  }
  s.clear_node_cap();
  node.set_fault_tap(nullptr);

  // Let any latency-delayed write land.
  s.demand("over", uniform(node, 2 * b.cpu_max, 2 * b.gpu_max, 500.0));
  s.demand("over", uniform(node, 2 * b.cpu_max, 2 * b.gpu_max, 500.0));
  s.demand("over", uniform(node, 2 * b.cpu_max, 2 * b.gpu_max, 500.0));
}

const std::vector<double> kNodeValues{-1.0, 0.0, 500.0, 1000.0, 3050.0, 1e6};

Bounds ac922_bounds(const hwsim::IbmAc922Config& c) {
  const double inf = std::numeric_limits<double>::infinity();
  return {c.cpu_idle_w, c.cpu_idle_w, c.cpu_max_w,
          c.gpu_idle_w, c.gpu_min_cap_w, c.gpu_max_w,
          {-1.0, 0.0, std::nextafter(c.node_soft_min_cap_w, -inf),
           c.node_soft_min_cap_w, c.node_hard_min_cap_w,
           c.nvml_failure_below_node_cap_w, 1500.0, 1800.0, 1950.0,
           std::nextafter(c.node_max_cap_w, -inf), c.node_max_cap_w,
           std::nextafter(c.node_max_cap_w, inf), 1e6}};
}

void ac922(const char* label, hwsim::IbmAc922Config c) {
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "lassen7", c);
  run(label, sim, node, ac922_bounds(c));
}

void ex235a(const char* label, hwsim::CrayEx235aConfig c) {
  sim::Simulation sim;
  hwsim::CrayEx235aNode node(sim, "tioga3", c);
  run(label, sim, node,
      {c.cpu_idle_w, c.cpu_idle_w, c.cpu_max_w, c.gcd_idle_w, c.gcd_idle_w,
       c.gcd_max_w, kNodeValues});
}

void xeon(const char* label, hwsim::IntelXeonConfig c) {
  sim::Simulation sim;
  hwsim::IntelXeonNode node(sim, "xeon5", c);
  run(label, sim, node,
      {c.cpu_idle_w, c.cpu_min_cap_w, c.cpu_max_w, c.gpu_idle_w,
       c.gpu_min_cap_w, c.gpu_max_w, kNodeValues});
}

void grace(const char* label, hwsim::ArmGraceConfig c) {
  sim::Simulation sim;
  hwsim::ArmGraceNode node(sim, "grace2", c);
  // No GPUs: the GPU writes sweep the CPU's bounds and must all fail.
  run(label, sim, node,
      {c.cpu_idle_w, c.cpu_min_cap_w, c.cpu_max_w, c.cpu_idle_w,
       c.cpu_min_cap_w, c.cpu_max_w, kNodeValues});
}

}  // namespace

int main() {
  ac922("ac922", {});
  {
    hwsim::IbmAc922Config c;
    c.nvml_failure_rate = 0.5;
    ac922("ac922 nvml_failure_rate=0.5", c);
  }
  {
    hwsim::IbmAc922Config c;
    c.node_cap_latency_s = 2.0;
    c.gpu_cap_latency_s = 1.5;
    ac922("ac922 node_cap_latency_s=2 gpu_cap_latency_s=1.5", c);
  }
  ex235a("ex235a", {});
  {
    hwsim::CrayEx235aConfig c;
    c.capping_enabled_for_users = true;
    ex235a("ex235a capping_enabled_for_users", c);
  }
  {
    hwsim::CrayEx235aConfig c;
    c.gcds = 4;
    c.capping_enabled_for_users = true;
    ex235a("ex235a gcds=4 capping_enabled_for_users", c);
  }
  xeon("xeon", {});
  {
    hwsim::IntelXeonConfig c;
    c.sockets = 4;
    c.gpus = 2;
    xeon("xeon sockets=4 gpus=2", c);
  }
  grace("grace", {});
  {
    hwsim::ArmGraceConfig c;
    c.sockets = 2;
    grace("grace sockets=2", c);
  }
  return 0;
}
