// Regression tests for the columnar (SoA) sample store: it must reproduce
// util::RingBuffer<PowerSample> semantics exactly — element-for-element,
// across wraparound, clears and lifetime inheritance — and its columns must
// never desynchronize from the validity bitmaps (check_integrity).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "hwsim/types.hpp"
#include "monitor/sample_store.hpp"
#include "util/ring_buffer.hpp"

namespace fluxpower::monitor {
namespace {

using hwsim::PowerSample;

// Deterministic sample generator: varied domain presence, counts and
// flags so every column and bitmap is exercised.
struct SampleGen {
  std::uint64_t state;
  double t = 0.0;

  explicit SampleGen(std::uint64_t seed) : state(seed * 2654435761u + 1) {}

  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 17;
  }
  double watts() { return 100.0 + static_cast<double>(next() % 10000) / 13.0; }

  PowerSample sample() {
    PowerSample s;
    t += 0.5 + static_cast<double>(next() % 4);  // strictly increasing
    s.timestamp_s = t;
    s.hostname = (next() % 2) == 0 ? "lassen7" : "tioga42";
    if (next() % 3 != 0) s.node_w = watts();
    if (next() % 2 == 0) s.node_estimate_w = watts();
    const std::size_t ncpu = next() % (hwsim::kMaxSockets + 1);
    for (std::size_t c = 0; c < ncpu; ++c) s.cpu_w.push_back(watts());
    if (next() % 4 != 0) s.mem_w = watts();
    const std::size_t ngpu = next() % (hwsim::kMaxGpuSensors + 1);
    for (std::size_t g = 0; g < ngpu; ++g) s.gpu_w.push_back(watts());
    s.gpu_is_oam = (next() % 2) == 0;
    s.sensor_fault = (next() % 16) == 0;
    return s;
  }
};

void expect_same_sample(const PowerSample& a, const PowerSample& b) {
  EXPECT_EQ(a.timestamp_s, b.timestamp_s);
  EXPECT_EQ(a.hostname.view(), b.hostname.view());
  EXPECT_EQ(a.node_w, b.node_w);
  EXPECT_EQ(a.node_estimate_w, b.node_estimate_w);
  EXPECT_TRUE(a.cpu_w == b.cpu_w);
  EXPECT_EQ(a.mem_w, b.mem_w);
  EXPECT_TRUE(a.gpu_w == b.gpu_w);
  EXPECT_EQ(a.gpu_is_oam, b.gpu_is_oam);
  EXPECT_EQ(a.sensor_fault, b.sensor_fault);
  EXPECT_EQ(a.best_node_w(), b.best_node_w());
}

TEST(ColumnarStore, MatchesRingBufferAcrossWraparound) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                     std::size_t{64}, std::size_t{100}}) {
    ColumnarSampleStore store(capacity);
    util::RingBuffer<PowerSample> reference(capacity);
    SampleGen gen(capacity);
    // Wrap several times over.
    for (std::size_t i = 0; i < capacity * 4 + 3; ++i) {
      const PowerSample s = gen.sample();
      store.push(s);
      reference.push(s);
      ASSERT_EQ(store.size(), reference.size());
      ASSERT_EQ(store.total_pushed(), reference.total_pushed());
      ASSERT_EQ(store.evicted(), reference.evicted());
      ASSERT_TRUE(store.check_integrity()) << "capacity " << capacity
                                           << " push " << i;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_same_sample(store.get(i), reference[i]);
      EXPECT_EQ(store.timestamp_at(i), reference[i].timestamp_s);
      EXPECT_EQ(store.best_w_at(i), reference[i].best_node_w());
    }
    expect_same_sample(store.front(), reference.front());
    expect_same_sample(store.back(), reference.back());
  }
}

TEST(ColumnarStore, LedgerIdentityAcrossClearAndInherit) {
  ColumnarSampleStore store(8);
  SampleGen gen(99);
  for (int i = 0; i < 20; ++i) store.push(gen.sample());
  EXPECT_EQ(store.total_pushed(), 20u);
  EXPECT_EQ(store.evicted(), 12u);

  // clear() retains the lifetime total: everything counts as evicted.
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.total_pushed(), 20u);
  EXPECT_EQ(store.evicted(), 20u);
  EXPECT_TRUE(store.check_integrity());

  // A replacement store inherits the predecessor's lifetime, exactly like
  // RingBuffer::inherit_lifetime on a set-config buffer swap.
  ColumnarSampleStore replacement(4);
  replacement.inherit_lifetime(store.total_pushed());
  for (int i = 0; i < 6; ++i) replacement.push(gen.sample());
  EXPECT_EQ(replacement.total_pushed(), 26u);
  EXPECT_EQ(replacement.size(), 4u);
  EXPECT_EQ(replacement.evicted(), 22u);
  EXPECT_TRUE(replacement.check_integrity());

  // Pushing after a clear reuses the physical slots and stays coherent.
  store.push(gen.sample());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.total_pushed(), 21u);
  EXPECT_TRUE(store.check_integrity());
}

TEST(ColumnarStore, WindowRangeMatchesLinearScan) {
  ColumnarSampleStore store(50);
  util::RingBuffer<PowerSample> reference(50);
  SampleGen gen(7);
  for (int i = 0; i < 130; ++i) {
    const PowerSample s = gen.sample();
    store.push(s);
    reference.push(s);
  }
  for (const auto [start, end] :
       {std::pair{0.0, 1e9}, std::pair{120.0, 200.0}, std::pair{0.0, 50.0},
        std::pair{200.0, 150.0}, std::pair{171.0, 171.0}}) {
    const auto [lo, hi] = store.window_range(start, end);
    std::vector<std::size_t> expect;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (reference[i].timestamp_s >= start && reference[i].timestamp_s <= end) {
        expect.push_back(i);
      }
    }
    ASSERT_EQ(hi - lo, expect.size()) << "window [" << start << "," << end
                                      << "]";
    for (std::size_t k = 0; k < expect.size(); ++k) {
      EXPECT_EQ(lo + k, expect[k]);
    }
    // Column segments cover the same range in order.
    const auto seg = store.best_w_segments(lo, hi);
    ASSERT_EQ(seg.size(), hi - lo);
    std::vector<double> copied;
    store.copy_best_w(lo, hi, copied);
    ASSERT_EQ(copied.size(), hi - lo);
    for (std::size_t k = 0; k < copied.size(); ++k) {
      EXPECT_EQ(copied[k], reference[lo + k].best_node_w());
    }
  }
}

TEST(ColumnarStore, PruneFrontMirrorsEviction) {
  ColumnarSampleStore store(16);
  SampleGen gen(3);
  std::vector<PowerSample> pushed;
  for (int i = 0; i < 16; ++i) {
    pushed.push_back(gen.sample());
    store.push(pushed.back());
  }
  // Prune everything older than the 5th retained timestamp.
  const double cut = pushed[5].timestamp_s;
  store.prune_front(cut);
  ASSERT_EQ(store.size(), 11u);
  EXPECT_EQ(store.total_pushed(), 16u);
  EXPECT_EQ(store.evicted(), 5u);
  EXPECT_TRUE(store.check_integrity());
  for (std::size_t i = 0; i < store.size(); ++i) {
    expect_same_sample(store.get(i), pushed[i + 5]);
  }
  // Pushing after a prune reuses the freed slots and wraps correctly.
  for (int i = 0; i < 24; ++i) store.push(gen.sample());
  EXPECT_EQ(store.size(), 16u);
  EXPECT_TRUE(store.check_integrity());

  // Pruning past the end empties the store without head residue.
  store.prune_front(1e18);
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.check_integrity());
  store.push(gen.sample());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.check_integrity());
}

// Domain-shaped samples for the lazily sized per-socket / per-GPU columns.
PowerSample ac922_sample(double t, double w) {
  PowerSample s;
  s.timestamp_s = t;
  s.hostname = "lassen7";
  s.node_w = 1000.0 + w;
  for (int c = 0; c < 2; ++c) s.cpu_w.push_back(150.0 + w + c);
  s.mem_w = 60.0 + w;
  for (int g = 0; g < 4; ++g) s.gpu_w.push_back(200.0 + w + g);
  return s;
}

/// A faulted sweep: the GPU domains are cleared and the node sensor is gone.
PowerSample faulted_sample(double t, double w) {
  PowerSample s = ac922_sample(t, w);
  s.node_w.reset();
  s.node_estimate_w = 900.0 + w;
  s.gpu_w.clear();
  s.sensor_fault = true;
  return s;
}

/// An EX235a sweep: one socket, four OAM packages, no node sensor.
PowerSample ex235a_sample(double t, double w) {
  PowerSample s;
  s.timestamp_s = t;
  s.hostname = "tioga42";
  s.node_estimate_w = 2000.0 + w;
  s.cpu_w.push_back(180.0 + w);
  for (int g = 0; g < 4; ++g) s.gpu_w.push_back(400.0 + w + g);
  s.gpu_is_oam = true;
  return s;
}

/// A sweep with every domain slot in use, materializing every column.
PowerSample full_sample(double t, double w) {
  PowerSample s = ac922_sample(t, w);
  s.cpu_w.clear();
  for (std::size_t c = 0; c < hwsim::kMaxSockets; ++c) s.cpu_w.push_back(w + c);
  s.gpu_w.clear();
  for (std::size_t g = 0; g < hwsim::kMaxGpuSensors; ++g) {
    s.gpu_w.push_back(w + g);
  }
  return s;
}

void expect_matches(const ColumnarSampleStore& store,
                    const util::RingBuffer<PowerSample>& reference,
                    const char* phase) {
  SCOPED_TRACE(phase);
  ASSERT_TRUE(store.check_integrity());
  ASSERT_EQ(store.size(), reference.size());
  ASSERT_EQ(store.total_pushed(), reference.total_pushed());
  ASSERT_EQ(store.evicted(), reference.evicted());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_same_sample(store.get(i), reference[i]);
  }
}

// Columns materialize as samples with more domains arrive, across faults,
// platform changes, buffer swaps, pruning and wraparound; every state must
// read back exactly like util::RingBuffer<PowerSample>.
TEST(ColumnarStore, MixedDomainSequencesMatchRingBuffer) {
  auto store = std::make_unique<ColumnarSampleStore>(6);
  auto reference = std::make_unique<util::RingBuffer<PowerSample>>(6);
  double t = 0.0;
  auto push = [&](const PowerSample& s) {
    store->push(s);
    reference->push(s);
    ASSERT_TRUE(store->check_integrity()) << "t=" << s.timestamp_s;
  };

  for (int i = 0; i < 4; ++i) push(ac922_sample(t += 2.0, i));
  expect_matches(*store, *reference, "ac922");

  // Faults clear the GPU domains of the newest slots; the old slots still
  // read their GPUs from the materialized columns.
  for (int i = 0; i < 3; ++i) push(faulted_sample(t += 2.0, i));
  expect_matches(*store, *reference, "sensor fault");

  // A node that reports fewer sockets but the same GPU count as OAMs, then
  // an AC922 sweep again, overwriting slots across the wrap seam.
  for (int i = 0; i < 5; ++i) push(ex235a_sample(t += 2.0, i));
  push(ac922_sample(t += 2.0, 9));
  expect_matches(*store, *reference, "ex235a");

  // The ring is full and wrapped: a sample with every domain slot in use
  // lands mid-ring and materializes the remaining columns, zero-filled
  // around it to the full physical length.
  push(full_sample(t += 2.0, 1.0));
  push(ac922_sample(t += 2.0, 3));
  expect_matches(*store, *reference, "full width mid-ring");

  // set-config buffer swap: the replacement starts empty, inherits the
  // lifetime and materializes its own columns from scratch.
  const std::uint64_t pushed = store->total_pushed();
  store = std::make_unique<ColumnarSampleStore>(9);
  store->inherit_lifetime(pushed);
  reference = std::make_unique<util::RingBuffer<PowerSample>>(9);
  reference->inherit_lifetime(pushed);
  expect_matches(*store, *reference, "buffer swap");
  for (int i = 0; i < 2; ++i) push(faulted_sample(t += 2.0, i));
  for (int i = 0; i < 3; ++i) push(ac922_sample(t += 2.0, i));
  expect_matches(*store, *reference, "after swap");

  // In a growing ring the same sample materializes its columns at the
  // append position; they are zero-filled behind it and kept in lockstep.
  push(full_sample(t += 2.0, 1.0));
  for (int i = 0; i < 3; ++i) push(ex235a_sample(t += 2.0, i));
  expect_matches(*store, *reference, "full width appended");

  // prune_front drops the oldest slots; the reference drops the same.
  const double cut = (*reference)[4].timestamp_s;
  store->prune_front(cut);
  util::RingBuffer<PowerSample> pruned(9);
  pruned.inherit_lifetime(reference->total_pushed() -
                          (reference->size() - 4));
  for (std::size_t i = 4; i < reference->size(); ++i) {
    pruned.push((*reference)[i]);
  }
  ASSERT_TRUE(store->check_integrity());
  ASSERT_EQ(store->size(), pruned.size());
  ASSERT_EQ(store->evicted(), pruned.evicted());
  for (std::size_t i = 0; i < pruned.size(); ++i) {
    expect_same_sample(store->get(i), pruned[i]);
  }
  *reference = std::move(pruned);

  // Wrap the ring several times over with alternating shapes.
  for (int i = 0; i < 40; ++i) {
    switch (i % 4) {
      case 0: push(ac922_sample(t += 2.0, i)); break;
      case 1: push(faulted_sample(t += 2.0, i)); break;
      case 2: push(ex235a_sample(t += 2.0, i)); break;
      default: push(full_sample(t += 2.0, i)); break;
    }
  }
  expect_matches(*store, *reference, "wraparound");

  // clear() empties every column; a narrow sample afterwards materializes
  // only what it needs and the store stays coherent.
  store->clear();
  reference->clear();
  push(ex235a_sample(t += 2.0, 0));
  expect_matches(*store, *reference, "after clear");
}

TEST(ColumnarStore, ZeroCapacityThrows) {
  EXPECT_THROW(ColumnarSampleStore(0), std::invalid_argument);
}

}  // namespace
}  // namespace fluxpower::monitor
