// metrics.hpp — process-wide metrics registry (observability plane).
//
// The paper's production story depends on operators *seeing* job power
// behaviour: per-job telemetry, cap actions, degradation under faults. This
// registry is the one place every layer deposits its counters so the whole
// stack exposes a single, coherent Prometheus-style surface:
//
//   * Counter    — monotonically increasing u64 (events, retries, faults).
//   * Gauge      — instantaneous double (buffer fill, queue depth).
//   * Histogram  — fixed-bucket distribution (latency, batch sizes).
//
// Design constraints (see DESIGN.md, "Observability plane"):
//   * Stable registration order: exposition renders metrics in the order
//     they were first registered, so output is byte-stable across runs.
//   * O(1) hot-path updates with zero heap allocations: callers hold a
//     Counter*/Gauge*/Histogram* obtained once at registration; inc/set/
//     observe touch only plain members. Name lookup happens at registration
//     time only, never on the update path.
//   * Mergeable: to_json()/merge_json() let per-broker registries be summed
//     hop by hop over the TBON (the `power.metrics` RPC), with the invariant
//     that the aggregate equals the per-node registry sums exactly.
//
// Naming convention: fluxpower_<module>_<name>_<unit>, e.g.
// fluxpower_monitor_samples_total, fluxpower_broker_rpc_latency_seconds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <forward_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace fluxpower::obs {

/// Monotonic event counter. Updates are a single add; reset() exists only
/// for module reload (a fresh module instance starts a fresh ledger, which
/// is what the pre-registry per-module counters did).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous value. Aggregation over nodes sums gauges (documented:
/// cluster-level gauges are totals, e.g. total retained samples).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: at most kMaxBuckets finite upper bounds plus an
/// implicit +Inf bucket. observe() is a short linear scan over an inline
/// array — no allocation, no resize, suitable for per-message hot paths.
class Histogram {
 public:
  static constexpr std::size_t kMaxBuckets = 16;

  Histogram() = default;
  /// Bounds must be strictly ascending; at most kMaxBuckets of them.
  explicit Histogram(std::span<const double> bounds);

  /// Count `v` in the first bucket with v <= bound (or +Inf).
  void observe(double v) noexcept {
    std::size_t i = 0;
    while (i < nbounds_ && v > bounds_[i]) ++i;
    ++counts_[i];
    sum_ += v;
    ++count_;
  }

  std::size_t bucket_count() const noexcept { return nbounds_; }
  double bound(std::size_t i) const noexcept { return bounds_[i]; }
  /// Non-cumulative count of bucket i; i == bucket_count() is +Inf.
  std::uint64_t count_in(std::size_t i) const noexcept { return counts_[i]; }
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  void reset() noexcept;

 private:
  friend class MetricsRegistry;
  double bounds_[kMaxBuckets] = {};
  std::uint64_t counts_[kMaxBuckets + 1] = {};
  std::size_t nbounds_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// A registry of named metrics. One per broker (per-node scope) plus one
/// process-wide instance (engine/bench scope). Registration is get-or-create
/// by name; registering an existing name with a different kind throws.
///
/// Storage is sized for tens of thousands of brokers per process: names and
/// help texts are interned once in a process-wide table, so a registry holds
/// only a flat vector of entries in registration order plus the values —
/// counters and gauges in 8-byte cells of a chunked arena (addresses stay
/// stable as it grows), a Histogram allocated only for histogram
/// instruments. Name lookup is a scan of the registry's own few dozen
/// entries and happens at registration time only.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  Counter& counter(std::string_view name, std::string_view help);
  Gauge& gauge(std::string_view name, std::string_view help);
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::span<const double> bounds);

  std::size_t size() const noexcept { return entries_.size(); }

  /// Scalar value of a counter or gauge (nullopt if absent or a histogram).
  std::optional<double> value(std::string_view name) const;

  /// Prometheus text exposition in registration order. `labels`, when
  /// non-empty, is spliced into every sample's label set verbatim (e.g.
  /// `host="lassen0",rank="3"`).
  std::string expose_text(const std::string& labels = {}) const;

  /// JSON form for RPC transport: an array of metric objects
  ///   {"name","type","help","value"} or
  ///   {"name","type","help","bounds":[],"counts":[],"sum","count"}.
  util::Json to_json() const;

  /// Add another registry's to_json() output into this one: counters and
  /// gauges sum, histograms add per-bucket counts (bounds must match).
  /// Unknown metrics are registered on first sight, preserving the donor's
  /// order — so merging the same sequence of registries always produces the
  /// same exposition bytes.
  void merge_json(const util::Json& metrics_array);

 private:
  enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

  /// One instrument. `name`/`help` point into the immortal process-wide
  /// intern table; `cell` is a Counter*/Gauge* into the cell arena, or an
  /// owned Histogram*.
  struct Entry {
    const std::string* name;
    const std::string* help;
    Kind kind;
    void* cell;

    Counter& counter() const noexcept { return *static_cast<Counter*>(cell); }
    Gauge& gauge() const noexcept { return *static_cast<Gauge*>(cell); }
    Histogram& histogram() const noexcept {
      return *static_cast<Histogram*>(cell);
    }
  };

  /// Storage for one Counter or Gauge (both a single 8-byte member).
  struct alignas(8) Cell {
    unsigned char bytes[8];
  };
  static constexpr std::size_t kCellsPerChunk = 16;

  const Entry* find(std::string_view name) const noexcept;
  /// The existing entry for `name` (kind-checked), or nullptr.
  const Entry* find_kind(std::string_view name, Kind kind) const;
  void add(std::string_view name, std::string_view help, Kind kind,
           void* cell);
  Cell* new_cell();

  std::vector<Entry> entries_;  ///< registration (exposition) order
  /// Cell arena: list nodes never move, so handles stay valid. The newest
  /// chunk is at the front, `front_used_` cells of it taken.
  std::forward_list<std::array<Cell, kCellsPerChunk>> cells_;
  std::size_t front_used_ = kCellsPerChunk;
};

/// The process-wide registry: scope for anything that is not per-broker —
/// the (shared) discrete-event engine, bench-runner bookkeeping.
MetricsRegistry& process_registry();

}  // namespace fluxpower::obs
