// node_policies.hpp — built-in node-policy plugins for the policy plane.
//
// Each NodePolicy enumerator maps to a policy::NodePolicyPlugin that acts
// exclusively through the power-manager module's cap primitives (uniform
// caps, the derived device budget, the FPP controller bank), so every watt
// still flows through the existing push/retry/quarantine machinery.
// The plugins observe pushed limits, job.progress events and the typed
// PowerSample windows the module feeds the FPP engine.
#pragma once

#include <memory>

#include "manager/policy.hpp"
#include "policy/policy.hpp"

namespace fluxpower::manager {

class PowerManagerModule;

/// Construct the plugin for `policy`, bound to `mod`. Never null: None maps
/// to a no-op plugin.
std::unique_ptr<policy::NodePolicyPlugin> make_node_policy_plugin(
    PowerManagerModule& mod, NodePolicy policy);

}  // namespace fluxpower::manager
