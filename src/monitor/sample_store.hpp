// sample_store.hpp — columnar (structure-of-arrays) power-sample ring.
//
// The monitor's hot read paths — ledger stats over a window, percentile
// sweeps for reports, and the dsp period detector — all consume a single
// scalar per sample (timestamp or one watt domain). Storing samples as an
// array of `hwsim::PowerSample` structs makes every such sweep a strided
// walk with `sizeof(PowerSample)` between consecutive values; storing each
// domain in its own contiguous `double` column makes them unit-stride,
// cache-friendly and vectorizable. This class is that layout change and
// nothing else: it reproduces `util::RingBuffer<PowerSample>` semantics
// exactly — insertion order, overwrite-oldest eviction, and the lifetime
// accounting (`total_pushed`, `evicted`, `inherit_lifetime`) that the
// chaos suite's ledger identity depends on — behind accessors that
// materialize `PowerSample` values on demand.
//
// Presence of the optional domains (node sensor, node estimate, memory)
// and the per-sample flags (gpu_is_oam, sensor_fault) live in packed
// validity bitmaps, one bit per physical slot; the per-sample cpu/gpu
// sensor counts in byte columns; hostnames in a tiny interned table (a
// node-agent's hostname never changes, so the table holds one entry).
//
// The per-socket and per-GPU columns are sized lazily: column c stays
// empty until a sample with more than c domains of that kind lands, and is
// then zero-filled to the physical ring length and kept in lockstep from
// there on. A two-socket, four-GPU node therefore never pays for the
// other six columns. get() reads only the first count columns of a slot,
// and every one of those was materialized when the slot was written.
//
// The same class backs the TBON delta-aggregation replicas: a broker
// mirrors each descendant's buffer by appending delta batches and pruning
// the front to the child's reported oldest-retained timestamp
// (`prune_front`), which keeps the mirror exact across evictions, crash
// reboots and set-config buffer swaps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "hwsim/types.hpp"

namespace fluxpower::monitor {

class ColumnarSampleStore {
 public:
  /// Capacity must be > 0; a monitor with no sample storage is a config
  /// error (same contract as util::RingBuffer).
  explicit ColumnarSampleStore(std::size_t capacity);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == capacity_; }

  /// Total number of push() calls over the store's lifetime; evicted() is
  /// everything pushed that is no longer retained (ring overwrites and
  /// prune_front drops alike).
  std::uint64_t total_pushed() const noexcept { return total_pushed_; }
  std::uint64_t evicted() const noexcept { return total_pushed_ - size_; }

  /// Append one sample, overwriting the oldest when full. Timestamps must
  /// be monotone non-decreasing across pushes (the simulator's sample
  /// clock only moves forward) — the window search relies on it.
  void push(const hwsim::PowerSample& s);

  /// Element i in insertion order (0 = oldest retained), materialized by
  /// value from the columns. Throws std::out_of_range like RingBuffer.
  hwsim::PowerSample get(std::size_t i) const;
  hwsim::PowerSample front() const { return get(0); }
  hwsim::PowerSample back() const { return get(size_ - 1); }

  double timestamp_at(std::size_t i) const;
  double best_w_at(std::size_t i) const;

  /// Logical index range [lo, hi) of samples with
  /// start_s <= timestamp <= end_s, by binary search over the monotone
  /// timestamp column.
  std::pair<std::size_t, std::size_t> window_range(double start_s,
                                                   double end_s) const;

  /// A logical range of a column as at most two contiguous spans (the ring
  /// seam splits wrapped ranges). `second` is empty when the range is
  /// contiguous.
  struct Segments {
    std::span<const double> first;
    std::span<const double> second;
    std::size_t size() const noexcept { return first.size() + second.size(); }
  };
  Segments best_w_segments(std::size_t lo, std::size_t hi) const;
  Segments timestamp_segments(std::size_t lo, std::size_t hi) const;

  /// Copy the best-node-watts column for logical [lo, hi) into `out`
  /// (resized to hi-lo): two bulk copies instead of size() strided loads.
  void copy_best_w(std::size_t lo, std::size_t hi,
                   std::vector<double>& out) const;

  /// Drop retained samples from the front while their timestamp is older
  /// than `min_ts_s`. Used by delta-aggregation replicas to mirror the
  /// child's evictions; dropped samples count as evicted.
  void prune_front(double min_ts_s);

  /// Discard retained samples. total_pushed is deliberately retained so
  /// eviction accounting covers the whole lifetime (RingBuffer semantics).
  void clear() noexcept;

  /// Credit pushes that happened before this store existed (buffer swap on
  /// reconfiguration); see RingBuffer::inherit_lifetime.
  void inherit_lifetime(std::uint64_t pushed_before) noexcept {
    total_pushed_ += pushed_before;
  }

  /// Internal consistency check for the regression suite: every column and
  /// bitmap must describe exactly the retained slots (sizes in lockstep,
  /// each domain column empty or full length and materialized wherever a
  /// retained slot's count needs it, counts within sensor ceilings,
  /// hostname indices valid). Returns false on any desynchronization.
  bool check_integrity() const noexcept;

 private:
  std::size_t phys(std::size_t i) const noexcept {
    std::size_t p = head_ + i;
    if (p >= capacity_) p -= capacity_;
    return p;
  }
  std::size_t phys_len() const noexcept { return timestamp_.size(); }
  void assign_slot(std::size_t p, const hwsim::PowerSample& s);
  void append_slot(const hwsim::PowerSample& s);
  std::uint32_t intern_hostname(const hwsim::FixedHostname& h);

  // Packed one-bit-per-slot flags.
  struct Bitmap {
    std::vector<std::uint64_t> words;
    void resize_for(std::size_t slots) { words.resize((slots + 63) / 64, 0); }
    bool get(std::size_t i) const noexcept {
      return (words[i >> 6] >> (i & 63)) & 1u;
    }
    void set(std::size_t i, bool v) noexcept {
      const std::uint64_t mask = std::uint64_t{1} << (i & 63);
      if (v) {
        words[i >> 6] |= mask;
      } else {
        words[i >> 6] &= ~mask;
      }
    }
    void clear() noexcept { words.clear(); }
  };

  std::size_t capacity_;
  std::size_t head_ = 0;  ///< physical index of logical element 0
  std::size_t size_ = 0;  ///< retained samples
  std::uint64_t total_pushed_ = 0;

  // Scalar columns, indexed by physical slot. Grown on first use up to
  // capacity_ so an idle replica costs nothing. Each cpu_w_/gpu_w_ column
  // is either empty (no sample has needed it yet) or exactly phys_len()
  // long.
  std::vector<double> timestamp_;
  std::vector<double> best_w_;  ///< best_node_w(), precomputed at push
  std::vector<double> node_w_;
  std::vector<double> node_estimate_w_;
  std::vector<double> mem_w_;
  std::vector<double> cpu_w_[hwsim::kMaxSockets];
  std::vector<double> gpu_w_[hwsim::kMaxGpuSensors];
  std::vector<std::uint8_t> cpu_count_;
  std::vector<std::uint8_t> gpu_count_;
  std::vector<std::uint32_t> host_idx_;
  std::vector<hwsim::FixedHostname> host_table_;

  Bitmap node_present_;
  Bitmap estimate_present_;
  Bitmap mem_present_;
  Bitmap gpu_is_oam_;
  Bitmap sensor_fault_;
};

}  // namespace fluxpower::monitor
