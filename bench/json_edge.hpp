// json_edge.hpp — the JSON telemetry edge, for the data-plane ablations.
//
// The monitor answers every telemetry query with a typed batch of
// PowerSample structs. The "JSON" rows of the data-plane ablations time the
// same typed query plus the work a JSON client costs at the edge: the root
// renders the merged batch to JSON, and the client parses every sample
// back into a PowerSample.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "flux/instance.hpp"
#include "flux/telemetry.hpp"
#include "monitor/power_monitor.hpp"
#include "variorum/variorum.hpp"

namespace fluxpower::bench {

/// TBON window query over `ranks` followed by the JSON edge round trip.
/// Returns the number of samples parsed, or nullopt if the query failed.
inline std::optional<std::size_t> json_edge_window_query(
    flux::Instance& instance, const std::vector<flux::Rank>& ranks,
    double start_s, double end_s) {
  util::Json req = util::Json::object();
  req["start"] = start_s;
  req["end"] = end_s;
  util::Json ranks_json = util::Json::array();
  for (flux::Rank r : ranks) ranks_json.push_back(r);
  req["ranks"] = std::move(ranks_json);

  std::optional<std::size_t> parsed;
  bool done = false;
  instance.root().rpc(
      flux::kRootRank, monitor::kGetSubtreeTopic, std::move(req),
      [&](const flux::Message& resp) {
        done = true;
        if (resp.is_error()) return;
        const util::Json json =
            flux::render_telemetry_payload(resp.payload, *resp.telemetry);
        std::vector<hwsim::PowerSample> samples;
        for (const util::Json& node : json.at("nodes").as_array()) {
          for (const util::Json& s : node.at("samples").as_array()) {
            samples.push_back(variorum::parse_node_power_json(s));
          }
        }
        parsed = samples.size();
      });
  while (!done && instance.pump_one()) {
  }
  return parsed;
}

}  // namespace fluxpower::bench
