// spec.hpp — serializable scenario definition (the twin's "genome").
//
// A TwinSpec captures everything needed to rebuild a Scenario from nothing:
// the full ScenarioConfig (platform, fleet size, module configs, fault
// weather, seeds) plus the ordered job submissions and the run horizon.
// Because the whole stack is deterministic, spec + event count is a complete
// description of any reachable state — which is what makes replay-based
// snapshot restore (see snapshot.hpp) exact rather than approximate.
//
// The encoding is versioned independently of the snapshot container so a
// spec-only change (new config field) doesn't invalidate state-section
// decoding, and vice versa. Enums encode as u32 of their underlying value;
// adding enum values is backward compatible, reordering is not (guarded by
// codec_test's pinned-bytes cases).
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/scenario.hpp"
#include "twin/codec.hpp"

namespace fluxpower::twin {

/// Current TwinSpec wire version. Bump on any field addition/removal and
/// teach decode() both shapes (or reject the old one loudly).
/// v2 adds the sharded execution profile knobs (shards, workers) after
/// record_period_s; v1 specs decode with shards=0 (monolithic engine).
/// v3 adds the policy plane: PiPolicyConfig after progress in the manager
/// block, the scheduler policy name after workers, and per-job
/// eco_tolerance; older specs decode with the defaults (empty name = FCFS,
/// tolerance 0 = not enrolled).
/// Two manager slots are retired but kept in place so existing digests do
/// not move: the manager's sample_cost_s is always written 0.0 and its
/// batched-limit-push flag always false. decode() rejects any other value
/// rather than silently materializing a different scenario.
inline constexpr std::uint32_t kSpecVersion = 3;

struct TwinSpec {
  experiments::ScenarioConfig scenario;
  std::vector<experiments::JobRequest> jobs;
  double max_time_s = 86400.0;

  void encode(ByteWriter& w) const;
  static TwinSpec decode(ByteReader& r);

  /// Digest over the encoded form — two specs with equal digests build
  /// byte-identical scenarios.
  std::uint64_t digest() const;

  /// Build a fresh, unstarted Scenario with all jobs submitted. Each call
  /// yields an independent simulation that will replay the same event
  /// sequence as every sibling.
  std::unique_ptr<experiments::Scenario> materialize() const;
};

}  // namespace fluxpower::twin
