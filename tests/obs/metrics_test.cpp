// Tests for obs/metrics: registry semantics, exposition bytes, TBON merge,
// the per-registry storage cost and concurrent registration.
//
// This binary replaces the global allocation functions with counting
// wrappers so the storage test can measure what one more broker's registry
// costs on the heap.
#include "obs/metrics.hpp"

#include <malloc.h>

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/power_monitor.hpp"
#include "sim/simulation.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};
std::atomic<std::ptrdiff_t> g_live_bytes{0};

void* counted(void* p) noexcept {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(
        static_cast<std::ptrdiff_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
  }
  return p;
}

void* counted_alloc(std::size_t n) noexcept {
  return counted(std::malloc(n == 0 ? 1 : n));
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) noexcept {
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return counted(std::aligned_alloc(a, rounded));
}

void counted_free(void* p) noexcept {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_live_bytes.fetch_sub(
        static_cast<std::ptrdiff_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

// Every replacement below pairs malloc/aligned_alloc with free by
// construction. GCC still flags free() as mismatched with operator new once
// a new/delete pair inlines into one caller, so that warning is off here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
#pragma GCC diagnostic pop

namespace fluxpower::obs {
namespace {

TEST(Counter, IncAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, BucketsObservationsAtUpperBound) {
  const std::array<double, 3> bounds{1.0, 2.0, 5.0};
  Histogram h(bounds);
  h.observe(0.5);  // le=1
  h.observe(1.0);  // le=1 (bound is inclusive)
  h.observe(1.5);  // le=2
  h.observe(9.0);  // +Inf
  EXPECT_EQ(h.bucket_count(), 3u);
  EXPECT_EQ(h.count_in(0), 2u);
  EXPECT_EQ(h.count_in(1), 1u);
  EXPECT_EQ(h.count_in(2), 0u);
  EXPECT_EQ(h.count_in(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
}

TEST(Histogram, RejectsBadBounds) {
  const std::array<double, 2> descending{2.0, 1.0};
  EXPECT_THROW(Histogram{std::span<const double>(descending)},
               std::invalid_argument);
  const std::vector<double> too_many(Histogram::kMaxBuckets + 1, 1.0);
  EXPECT_THROW(Histogram{std::span<const double>(too_many)},
               std::invalid_argument);
}

TEST(Registry, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("fluxpower_test_total", "help");
  Counter& b = reg.counter("fluxpower_test_total", "help");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("fluxpower_test_total", "help");
  EXPECT_THROW(reg.gauge("fluxpower_test_total", "help"), std::logic_error);
}

TEST(Registry, ValueLookup) {
  MetricsRegistry reg;
  reg.counter("c", "h").inc(3);
  reg.gauge("g", "h").set(1.5);
  const std::array<double, 1> bounds{1.0};
  reg.histogram("h", "h", bounds);
  EXPECT_EQ(reg.value("c"), 3.0);
  EXPECT_EQ(reg.value("g"), 1.5);
  EXPECT_FALSE(reg.value("h").has_value());   // histograms are not scalars
  EXPECT_FALSE(reg.value("nope").has_value());
}

// Golden exposition: exact bytes, registration order, cumulative buckets.
TEST(Registry, GoldenExposition) {
  MetricsRegistry reg;
  reg.counter("fluxpower_x_events_total", "Events seen").inc(7);
  reg.gauge("fluxpower_x_fill_ratio", "Buffer fill").set(0.25);
  const std::array<double, 2> bounds{0.001, 0.01};
  Histogram& h = reg.histogram("fluxpower_x_latency_seconds", "Latency",
                               bounds);
  h.observe(0.0005);
  h.observe(0.002);
  h.observe(5.0);
  const std::string expected =
      "# HELP fluxpower_x_events_total Events seen\n"
      "# TYPE fluxpower_x_events_total counter\n"
      "fluxpower_x_events_total 7\n"
      "# HELP fluxpower_x_fill_ratio Buffer fill\n"
      "# TYPE fluxpower_x_fill_ratio gauge\n"
      "fluxpower_x_fill_ratio 0.25\n"
      "# HELP fluxpower_x_latency_seconds Latency\n"
      "# TYPE fluxpower_x_latency_seconds histogram\n"
      "fluxpower_x_latency_seconds_bucket{le=\"0.001\"} 1\n"
      "fluxpower_x_latency_seconds_bucket{le=\"0.01\"} 2\n"
      "fluxpower_x_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "fluxpower_x_latency_seconds_sum 5.0025\n"
      "fluxpower_x_latency_seconds_count 3\n";
  EXPECT_EQ(reg.expose_text(), expected);
}

TEST(Registry, ExpositionSplicesLabels) {
  MetricsRegistry reg;
  reg.counter("fluxpower_x_total", "h").inc(1);
  const std::string text = reg.expose_text("host=\"lassen0\"");
  EXPECT_NE(text.find("fluxpower_x_total{host=\"lassen0\"} 1\n"),
            std::string::npos);
}

TEST(Registry, MergeJsonSumsEverything) {
  const std::array<double, 2> bounds{1.0, 2.0};
  MetricsRegistry a;
  a.counter("c", "h").inc(3);
  a.gauge("g", "h").set(0.5);
  Histogram& ha = a.histogram("hist", "h", bounds);
  ha.observe(0.5);
  ha.observe(10.0);

  MetricsRegistry agg;
  agg.merge_json(a.to_json());
  agg.merge_json(a.to_json());  // merge twice: everything doubles
  EXPECT_EQ(agg.value("c"), 6.0);
  EXPECT_EQ(agg.value("g"), 1.0);
  // The merged registry's exposition equals a registry holding the sums.
  MetricsRegistry expected;
  expected.counter("c", "h").inc(6);
  expected.gauge("g", "h").set(1.0);
  Histogram& he = expected.histogram("hist", "h", bounds);
  he.observe(0.5);
  he.observe(0.5);
  he.observe(10.0);
  he.observe(10.0);
  EXPECT_EQ(agg.expose_text(), expected.expose_text());
}

TEST(Registry, MergeJsonRejectsBoundMismatch) {
  const std::array<double, 2> bounds_a{1.0, 2.0};
  const std::array<double, 2> bounds_b{1.0, 3.0};
  MetricsRegistry a, b;
  a.histogram("hist", "h", bounds_a);
  b.histogram("hist", "h", bounds_b);
  MetricsRegistry agg;
  agg.merge_json(a.to_json());
  EXPECT_THROW(agg.merge_json(b.to_json()), std::logic_error);
}

// Large and fractional values survive the JSON trip exactly enough for
// counters (integral) and render without scientific noise in exposition.
TEST(Registry, NumberFormatting) {
  MetricsRegistry reg;
  reg.counter("big_total", "h").inc(1234567890123ull);
  const std::string text = reg.expose_text();
  EXPECT_NE(text.find("big_total 1234567890123\n"), std::string::npos);
}

/// One instrument as registered: enough to register it again.
struct InstrumentSpec {
  std::string name;
  std::string type;
  std::string help;
  std::vector<double> bounds;
};

/// The instrument set a non-root broker with the power monitor loaded
/// registers: the broker's own counters plus the monitor's.
std::vector<InstrumentSpec> broker_and_monitor_instruments() {
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, 2);
  flux::Instance instance(sim, {&cluster.node(0), &cluster.node(1)});
  instance.load_module_on_all<monitor::PowerMonitorModule>(
      monitor::PowerMonitorConfig::for_lassen());
  std::vector<InstrumentSpec> specs;
  const util::Json metrics = instance.broker(1).metrics().to_json();
  for (const util::Json& m : metrics.as_array()) {
    InstrumentSpec spec{m.at("name").as_string(), m.at("type").as_string(),
                        m.string_or("help", ""), {}};
    if (spec.type == "histogram") {
      for (const util::Json& b : m.at("bounds").as_array()) {
        spec.bounds.push_back(b.as_double());
      }
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

void register_all(MetricsRegistry& reg,
                  const std::vector<InstrumentSpec>& specs) {
  for (const InstrumentSpec& s : specs) {
    if (s.type == "counter") {
      reg.counter(s.name, s.help);
    } else if (s.type == "gauge") {
      reg.gauge(s.name, s.help);
    } else {
      reg.histogram(s.name, s.help, s.bounds);
    }
  }
}

// One more broker's registry costs its values and entries, not another copy
// of every instrument's name and help text: those live once per process.
TEST(RegistryStorage, FreshRegistryAllocatesNoNameOrHelpStorage) {
  const std::vector<InstrumentSpec> specs = broker_and_monitor_instruments();
  ASSERT_GE(specs.size(), 15u);
  std::size_t histograms = 0;
  for (const InstrumentSpec& s : specs) {
    // Every name and help text is too long for the small-string buffer, so
    // a per-registry copy of any of them would be a heap allocation.
    ASSERT_GT(s.name.size(), std::string().capacity());
    if (s.type == "histogram") ++histograms;
  }

  auto reg = std::make_unique<MetricsRegistry>();
  g_allocs.store(0);
  g_live_bytes.store(0);
  g_counting.store(true);
  register_all(*reg, specs);
  g_counting.store(false);
  const std::size_t allocs = g_allocs.load();
  const std::ptrdiff_t live = g_live_bytes.load();

  ASSERT_EQ(reg->size(), specs.size());
  // Fewer allocations than instruments: no instrument got its own name.
  // What remains is one Histogram per histogram instrument, the cell arena
  // and the entry vector's growth.
  EXPECT_LT(allocs, specs.size()) << allocs << " allocations";
  EXPECT_LE(allocs, histograms + 8) << allocs << " allocations";
  // 19 instruments (4 of them 288-byte histograms) fit in 3 KiB; the
  // string-keyed layout this replaced needed about 11 KiB.
  EXPECT_LE(live, 3 * 1024) << live << " live bytes";
}

TEST(RegistryStorage, AllocationCounterSeesRegistration) {
  // Guards the test above against the replacement silently not linking in:
  // a registry with a brand-new name must be seen allocating.
  MetricsRegistry reg;
  g_allocs.store(0);
  g_counting.store(true);
  reg.counter("fluxpower_test_alloc_counter_sees_this_total", "help");
  g_counting.store(false);
  EXPECT_GT(g_allocs.load(), 0u);
}

// The name table is shared by every registry in the process, so workers
// that build registries at the same time (sharded-engine islands, twin
// server workers) race on it. Each thread builds per-node registries with
// the same names, including names no registry has seen before, and merges
// them; every thread must expose the same bytes as a serial run.
TEST(RegistryConcurrency, ThreadsBuildAndMergeSameNames) {
  const std::vector<InstrumentSpec> specs = broker_and_monitor_instruments();
  auto build_and_merge = [&specs]() {
    MetricsRegistry aggregate;
    for (int node = 0; node < 8; ++node) {
      MetricsRegistry reg;
      register_all(reg, specs);
      for (int i = 0; i < 32; ++i) {
        reg.counter("fluxpower_test_concurrent_" + std::to_string(i) +
                        "_total",
                    "Shared name first registered under contention")
            .inc(static_cast<std::uint64_t>(node + i));
      }
      reg.gauge("fluxpower_test_concurrent_gauge", "g").set(node * 0.5);
      aggregate.merge_json(reg.to_json());
    }
    return aggregate.expose_text("cluster=\"t\"");
  };

  std::vector<std::string> texts(4);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < texts.size(); ++t) {
    workers.emplace_back([&texts, &build_and_merge, t] {
      texts[t] = build_and_merge();
    });
  }
  for (std::thread& w : workers) w.join();
  const std::string serial = build_and_merge();
  for (const std::string& text : texts) EXPECT_EQ(text, serial);
  EXPECT_NE(serial.find("fluxpower_test_concurrent_31_total{cluster=\"t\"} "
                        "276\n"),
            std::string::npos);
}

}  // namespace
}  // namespace fluxpower::obs
