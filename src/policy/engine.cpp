#include "policy/engine.hpp"

#include <stdexcept>
#include <utility>

#include "policy/sched_policies.hpp"

namespace fluxpower::policy {

PolicyEngine& PolicyEngine::global() {
  static PolicyEngine engine;
  return engine;
}

PolicyEngine::PolicyEngine() { register_builtin_sched_policies(*this); }

void PolicyEngine::register_sched(std::string name, std::string summary,
                                  SchedFactory f) {
  if (sched_.contains(name)) return;
  sched_order_.push_back(name);
  sched_.emplace(std::move(name),
                 SchedEntry{std::move(summary), std::move(f)});
}

bool PolicyEngine::has_sched(std::string_view name) const {
  return sched_.find(name) != sched_.end();
}

std::unique_ptr<SchedulerPolicy> PolicyEngine::make_sched(
    std::string_view name) const {
  const auto it = sched_.find(name);
  if (it == sched_.end()) {
    std::string known;
    for (const std::string& n : sched_order_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("PolicyEngine: unknown scheduler policy \"" +
                                std::string(name) + "\" (known: " + known +
                                ")");
  }
  return it->second.factory();
}

std::vector<PolicyInfo> PolicyEngine::sched_policies() const {
  std::vector<PolicyInfo> out;
  out.reserve(sched_order_.size());
  for (const std::string& n : sched_order_) {
    out.push_back({n, sched_.at(n).summary});
  }
  return out;
}

}  // namespace fluxpower::policy
