// bench.hpp — shared pieces of the repository benchmark: wall-clock timing,
// exact order statistics, an output hash, an in-memory span recorder and
// the per-run report every workload fills in.
//
// Every time here comes from std::chrono::steady_clock, converted to
// reference seconds with HostSpeed. Nothing is derived from CPU time or
// from histogram bucket interpolation.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The host's speed, sampled while a workload runs, with a fixed reference
/// kernel that is part of the benchmark and calls nothing in src/.
///
/// The benchmark runs on a few cores of a shared machine. Their speed
/// drifts by up to ~2x, over seconds and over minutes (clock frequency,
/// other tenants on the same cores), so raw wall times from different
/// moments are not comparable. One sampler thread per listed CPU, pinned to
/// it, wakes every kPeriodS (all of them at once) and times kSliceEvents
/// events of the kernel, preempting whatever runs there. A workload reports
/// its times in reference seconds: wall time scaled by kNominalSliceS over
/// the mean slice time sampled in the same interval, i.e. the time the work
/// would take on a host where the kernel runs at its nominal speed. Raw
/// wall times stay in the readout.
class HostSpeed {
 public:
  static constexpr double kPeriodS = 0.025;
  static constexpr int kSliceEvents = 6000;
  /// A slice's typical wall time on the 4-vCPU Xeon (Sapphire Rapids) VM
  /// the benchmark was tuned on, sampled between the simulator's work.
  static constexpr double kNominalSliceS = 1.8e-3;
  /// Fewest samples scale() averages over.
  static constexpr std::size_t kMinSamples = 4;

  /// Starts the samplers; returns once each has warmed its kernel and
  /// kMinSamples samples exist.
  /// Throws std::runtime_error if `cpus` is empty.
  explicit HostSpeed(const std::vector<int>& cpus);
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// kNominalSliceS over the mean slice time sampled in [from, to] (the
  /// interval is widened until it holds kMinSamples samples). Throws if
  /// there is no sample within a minute of it.
  double scale(Clock::time_point from, Clock::time_point to) const;
  /// The interval [from, to] in reference seconds.
  double reference_s(Clock::time_point from, Clock::time_point to) const {
    return std::chrono::duration<double>(to - from).count() * scale(from, to);
  }
  /// Mean slice time over every sample so far, for the readout.
  double mean_slice_s() const;

 private:
  struct Sample {
    Clock::time_point start;
    double seconds;
  };
  void sample_loop(int cpu);
  /// Stop and join every sampler started so far.
  void stop();

  mutable std::mutex mutex_;  ///< guards ready_, stop_ and samples_
  std::condition_variable wake_;
  std::size_t ready_ = 0;  ///< samplers whose kernel is built and warm
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::vector<std::thread> threads_;
  double sink_ = 0.0;  ///< keeps the kernel's result live
};

/// CPUs the calling thread may run on, in increasing order.
std::vector<int> allowed_cpus();
/// Restrict the calling thread, and every thread it starts later, to
/// `cpus`; false if the kernel refuses.
bool pin_this_thread(const std::vector<int>& cpus);

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace JSON path (traced runs only)
};

/// Median of a sample (mean of the two middle values for even sizes).
double median(std::vector<double> v);
/// Median over reps of one per-rep figure (a member pointer or callable).
template <class Rep, class Get>
double median_of(const std::vector<Rep>& reps, Get get) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(std::invoke(get, r));
  return median(std::move(v));
}
/// Exact nearest-rank percentile: the smallest sample with at least
/// q * n samples at or below it. No interpolation.
double percentile(std::vector<double> v, double q);

/// Peak resident set size of this process (VmHWM), in MiB.
double vm_hwm_mb();

/// FNV-1a over the exact bytes of every value fed in, so two runs hash
/// equal only when their outputs are bit-identical.
class Hasher {
 public:
  Hasher& add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  Hasher& add(double v) { return add_bytes(&v, sizeof v); }
  Hasher& add(std::int64_t v) { return add_bytes(&v, sizeof v); }
  Hasher& add(std::uint64_t v) { return add_bytes(&v, sizeof v); }
  Hasher& add(int v) { return add(static_cast<std::int64_t>(v)); }
  Hasher& add(bool v) { return add(static_cast<std::int64_t>(v)); }
  Hasher& add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    return add_bytes(s.data(), s.size());
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Spans recorded by the benchmark around its calls into the simulator.
/// They stay in memory until write_chrome_json(); recording is a no-op
/// while the recorder is disabled. Thread-safe.
class Tracer {
 public:
  using Args = std::vector<std::pair<std::string, double>>;

  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Open a span; returns its id (0 when disabled). `parent` 0 = root.
  std::uint64_t begin(std::string name, std::uint64_t parent = 0,
                      std::int64_t op = -1);
  /// Close a span opened by begin(), attaching numeric arguments.
  void end(std::uint64_t id, Args args = {});
  std::size_t size() const;

  /// Chrome trace-event JSON ('X' complete events, microseconds of host
  /// time since the recorder's epoch). Returns false if the file cannot
  /// be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t op = -1;
    std::uint64_t tid = 0;
    double start_us = 0.0;
    double end_us = -1.0;
    Args args;
  };

  std::atomic<bool> enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;   ///< guards spans_
  std::vector<Record> spans_;  ///< index = id - 1
};

/// RAII span: closes on scope exit unless close() was called first.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::uint64_t parent = 0,
       std::int64_t op = -1)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent, op)) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return id_; }
  void close(Tracer::Args args = {}) {
    if (id_ != 0 && !closed_) tracer_.end(id_, std::move(args));
    closed_ = true;
  }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
  bool closed_ = false;
};

/// What one workload run reports. `metrics` holds the end-to-end set
/// (untraced runs) or the per-layer set (traced runs); `lines` is the
/// human-readable readout printed before the JSON result line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, double>> metrics;  ///< units: main.cpp
  std::vector<std::string> lines;

  void metric(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
  /// Record a failed correctness check.
  void fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
  void line(const std::string& text) { lines.push_back(text); }
};

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
/// Per-rep times for the readout: " 1.234 1.198 ...".
std::string rep_list(const std::vector<double>& seconds);

/// Reference output hashes recorded with the benchmark, keyed by seed. A
/// run whose seed has an entry must reproduce it bit for bit.
struct Reference {
  std::uint64_t seed;
  std::uint64_t hash;
};
/// The reference for `seed` in `table`, or nullptr.
const Reference* find_reference(const std::vector<Reference>& table,
                                std::uint64_t seed);

// Workload entry points (one translation unit each).
Report run_site_fortnight(const Options& opt, Tracer& tracer);
Report run_whole_site(const Options& opt, Tracer& tracer);
Report run_twin_whatif(const Options& opt, Tracer& tracer);

}  // namespace perfbench
