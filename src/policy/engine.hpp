// engine.hpp — PolicyEngine: the scheduler-policy name registry.
//
// One process-wide engine maps scheduler policy names to factories.
// Registration is explicit and idempotent — no static-initializer
// self-registration, which a static-lib link would silently dead-strip.
// The built-ins register in the engine constructor. Node policies need no
// registry: they are the closed manager::NodePolicy enum, dispatched inside
// the power-manager module and named by manager::node_policy_name().
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "policy/policy.hpp"

namespace fluxpower::policy {

/// Catalog entry for `list` surfaces (docs, benches, error messages).
struct PolicyInfo {
  std::string name;
  std::string summary;
};

class PolicyEngine {
 public:
  using SchedFactory = std::function<std::unique_ptr<SchedulerPolicy>()>;

  /// The process-wide engine (function-local static: deterministic
  /// construction on first use, no init-order hazards).
  static PolicyEngine& global();

  PolicyEngine();
  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  // -- scheduler policies ----------------------------------------------------
  /// Get-or-keep registration: a name registered twice keeps its first
  /// factory (idempotent across repeated setup calls).
  void register_sched(std::string name, std::string summary, SchedFactory f);
  bool has_sched(std::string_view name) const;
  /// Construct a policy by name; throws std::invalid_argument on unknown
  /// names (listing the known ones).
  std::unique_ptr<SchedulerPolicy> make_sched(std::string_view name) const;
  std::vector<PolicyInfo> sched_policies() const;

 private:
  struct SchedEntry {
    std::string summary;
    SchedFactory factory;
  };
  /// Registration order preserved for list surfaces.
  std::vector<std::string> sched_order_;
  std::map<std::string, SchedEntry, std::less<>> sched_;
};

}  // namespace fluxpower::policy
