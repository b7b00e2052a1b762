// Zero-allocation regression test for the per-node hot path.
//
// This binary replaces the global allocation functions with counting
// wrappers, then asserts that steady-state work on every platform performs
// no heap allocation at all: AppRuntime stepping (demand -> grants ->
// progress on each 0.5 s tick) and repeated identical uniform cap writes
// (the power manager's control-tick re-write). A regression that puts a
// std::vector temporary back on either path fails here with the count.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "apps/app_runtime.hpp"
#include "hwsim/cluster.hpp"
#include "variorum/variorum.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace fluxpower {
namespace {

using hwsim::Platform;

/// Counts heap allocations made between construction and stop().
class AllocWindow {
 public:
  AllocWindow() {
    g_allocs.store(0);
    g_counting.store(true);
  }
  ~AllocWindow() { g_counting.store(false); }
  std::size_t stop() {
    g_counting.store(false);
    return g_allocs.load();
  }
};

class HotPathAllocTest : public ::testing::TestWithParam<Platform> {};

TEST(HotPathAllocCounter, SeesAllocations) {
  // Guards against the replacement silently not linking in: a test that
  // cannot observe an allocation would pass every zero-allocation check.
  static std::vector<double>* volatile sink = nullptr;
  AllocWindow window;
  sink = new std::vector<double>(16, 1.0);
  delete sink;
  EXPECT_GE(window.stop(), 1u);
}

TEST_P(HotPathAllocTest, AppRuntimeSteppingAllocatesNothing) {
  sim::Simulation sim;
  hwsim::Cluster cluster = hwsim::make_cluster(sim, GetParam(), 2);
  std::vector<hwsim::Node*> nodes{&cluster.node(0), &cluster.node(1)};
  apps::AppProfile prof =
      apps::make_profile(apps::AppKind::Gemm, GetParam(), 2);
  prof.runtime_s = 1e6;  // outlives the measured window
  apps::AppRuntime rt(sim, nodes, prof);
  rt.start([] {});
  // Warm-up: the engine's timing wheel gives each bucket storage on first
  // use, so run past two full wheel rotations before counting.
  const double warm_s = 2.0 * sim::Simulation::kNumBuckets *
                            sim::Simulation::kBucketWidth + 20.0;
  sim.run_until(warm_s);

  const double steps = 1000.0;
  AllocWindow window;
  sim.run_until(warm_s + steps * 0.5);
  const std::size_t allocs = window.stop();

  EXPECT_EQ(allocs, 0u) << "heap allocations over " << steps
                        << " steady-state AppRuntime ticks";
  EXPECT_TRUE(rt.running());
  EXPECT_GT(rt.work_done(), 0.0);
}

TEST_P(HotPathAllocTest, IdenticalUniformCapRewritesAllocateNothing) {
  sim::Simulation sim;
  std::unique_ptr<hwsim::Node> node =
      hwsim::make_node(sim, GetParam(), "n0");
  const double cap_w = 200.0;
  auto rewrite = [&] {
    // The power manager's apply_uniform_cap: every GPU when the platform
    // has them, else every socket.
    bool ok = true;
    if (node->gpu_count() > 0) {
      for (const hwsim::CapResult& r :
           variorum::cap_each_gpu_power_limit(*node, cap_w)) {
        ok = ok && r.status != hwsim::CapStatus::IoError;
      }
    } else {
      for (int i = 0; i < node->socket_count(); ++i) {
        ok = ok && node->set_socket_power_cap(i, cap_w).status !=
                       hwsim::CapStatus::IoError;
      }
    }
    return ok;
  };
  rewrite();

  AllocWindow window;
  bool ok = true;
  for (int i = 0; i < 1000; ++i) ok = rewrite() && ok;
  const std::size_t allocs = window.stop();

  EXPECT_EQ(allocs, 0u) << "heap allocations over 1000 identical rewrites";
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, HotPathAllocTest,
    ::testing::Values(Platform::LassenIbmAc922, Platform::TiogaCrayEx235a,
                      Platform::GenericArmGrace, Platform::GenericIntelXeon),
    [](const ::testing::TestParamInfo<Platform>& info) {
      return std::string(hwsim::platform_name(info.param));
    });

}  // namespace
}  // namespace fluxpower
