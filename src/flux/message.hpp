// message.hpp — the Flux message protocol (RFC 3 subset).
//
// Flux components communicate exclusively by exchanging messages over the
// tree-based overlay network. We model the three message classes the
// power-management modules use: request, response and event. Requests carry
// a matchtag that the response echoes so concurrent RPCs can be correlated,
// exactly as in the real protocol.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/json.hpp"

namespace fluxpower::flux {

struct TelemetryBatch;

/// Broker rank within an instance; rank 0 is the TBON root.
using Rank = int;
inline constexpr Rank kRootRank = 0;

/// Error numbers carried by error responses (errno subset).
inline constexpr int kEProto = 71;     ///< malformed payload
inline constexpr int kENosys = 38;     ///< no such service
inline constexpr int kEPerm = 1;       ///< permission denied
inline constexpr int kEInval = 22;     ///< invalid argument
inline constexpr int kENoent = 2;      ///< no such object (job, key, ...)
inline constexpr int kETimedout = 110; ///< RPC deadline expired

/// Message credentials (RFC 3 userid/rolemask subset). The instance owner
/// holds kOwnerUserid; guest users get their own ids. Services that mutate
/// cluster state (power limits, config) are owner-only.
using UserId = int;
inline constexpr UserId kOwnerUserid = 0;
inline constexpr UserId kGuestUserid = 1000;

struct Message {
  enum class Type { Request, Response, Event };

  Type type = Type::Request;
  std::string topic;       ///< service topic, e.g. "power-monitor.get-data"
  Rank sender = -1;
  Rank dest = -1;          ///< events use -1 (broadcast)
  std::uint64_t matchtag = 0;
  int errnum = 0;          ///< responses only; 0 = success
  std::string error_text;  ///< human-readable error detail
  UserId userid = kOwnerUserid;  ///< credential of the requester
  util::Json payload;
  /// Typed-telemetry fast path: when set, the real payload is this batch
  /// plus the JSON `payload` as meta keys. Routing copies the pointer (one
  /// atomic increment per TBON hop, never the samples); the codec renders
  /// it into the JSON payload at the wire boundary so encoded messages are
  /// indistinguishable from the JSON-everywhere protocol. Every monitor
  /// get-data, get-subtree and query-job response carries it.
  std::shared_ptr<const TelemetryBatch> telemetry;

  bool is_error() const noexcept { return errnum != 0; }
};

}  // namespace fluxpower::flux
