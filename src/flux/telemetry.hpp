// telemetry.hpp — typed telemetry payloads for intra-instance messaging.
//
// The monitor's data plane carries hwsim::PowerSample structs end-to-end:
// node-agents store them raw in the ring buffer, brokers merge them through
// the TBON subtree reduction, and the root hands them to the client — all
// without serializing. Every get-data, get-subtree and query-job response
// carries a TelemetryBatch. JSON exists only at the edge: the codec renders
// the batch into the payload when a message crosses the wire boundary (wire
// dumps, journal), byte-identical to the historical JSON-everywhere
// payloads, so wire formats and experiment outputs are unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flux/message.hpp"
#include "hwsim/types.hpp"
#include "util/json.hpp"

namespace fluxpower::flux {

/// One node's contribution to a telemetry query — the typed equivalent of
/// the per-node JSON entry ({hostname, rank, complete, decimated, samples}).
struct TelemetryNodeEntry {
  std::string hostname;
  Rank rank = -1;
  bool complete = true;
  bool decimated = false;
  /// Entry synthesized for a dead/unreachable subtree member; renders with
  /// the historical error shape (no `decimated` key, `error` text present).
  bool errored = false;
  std::string error;
  std::vector<hwsim::PowerSample> samples;

  // --- Incremental-aggregation meta (intra-tree hops only; never rendered
  // --- into the edge JSON, which stays byte-identical to the legacy shape).
  /// When true, `samples` holds only readings newer than the requester's
  /// watermark for this rank, and the source-buffer meta below lets the
  /// requester keep an exact mirror (replica) of the source ring: prune to
  /// front_ts_s, append the delta, carry the eviction ledger through.
  bool delta = false;
  bool source_empty = false;      ///< source buffer held no samples
  double front_ts_s = 0.0;        ///< oldest retained timestamp at source
  std::uint64_t source_evicted = 0;   ///< source lifetime eviction count
  std::uint32_t source_capacity = 0;  ///< source ring capacity
};

/// A merged set of per-node entries travelling up the TBON. Held by
/// shared_ptr on the Message so each routing hop copies a pointer, not the
/// samples.
struct TelemetryBatch {
  std::vector<TelemetryNodeEntry> nodes;
  /// When true the batch is a single node-agent's get-data reply and
  /// renders as the bare entry object instead of {..., "nodes": [...]}.
  bool single_entry = false;
};

/// Render one entry exactly as the JSON data plane produced it: normal
/// entries as {hostname, rank, complete, decimated, samples}, error entries
/// as {hostname, rank, complete, samples, error}.
util::Json render_telemetry_entry(const TelemetryNodeEntry& entry);

/// Render a message's payload with its telemetry batch folded in: the batch
/// nodes land under "nodes" after the meta keys (or as the bare entry for
/// single_entry batches). `meta` is the message's JSON payload.
util::Json render_telemetry_payload(const util::Json& meta,
                                    const TelemetryBatch& batch);

}  // namespace fluxpower::flux
