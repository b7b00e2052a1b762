// TwinSpec v3 keeps two retired manager slots in place so existing digests
// do not move: the manager's sample_cost_s (always written 0.0) and the
// batched-limit-push flag (always written false). A spec carrying any other
// value there describes a scenario this build can no longer materialize, so
// decode must refuse it instead of silently dropping the value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "twin/spec.hpp"

namespace fluxpower::twin {
namespace {

/// Each retired slot directly follows a live f64 field; a distinctive
/// value in that field locates the slot in the encoded bytes.
constexpr double kMarker = 12345.671875;

std::size_t offset_after_marker(const std::vector<std::uint8_t>& bytes) {
  std::uint8_t pattern[sizeof(double)];
  std::memcpy(pattern, &kMarker, sizeof(double));  // little-endian hosts
  const auto it = std::search(bytes.begin(), bytes.end(), std::begin(pattern),
                              std::end(pattern));
  EXPECT_NE(it, bytes.end());
  EXPECT_EQ(std::search(it + 1, bytes.end(), std::begin(pattern),
                        std::end(pattern)),
            bytes.end())
      << "marker must appear once";
  return static_cast<std::size_t>(it - bytes.begin()) + sizeof(double);
}

std::vector<std::uint8_t> encode(const TwinSpec& spec) {
  ByteWriter w;
  spec.encode(w);
  return w.take();
}

void expect_decodes(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  EXPECT_NO_THROW(TwinSpec::decode(r));
}

void expect_rejected(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  EXPECT_THROW(TwinSpec::decode(r), CodecError);
}

TEST(TwinSpecRetiredSlots, BatchedPushFlagMustBeFalse) {
  TwinSpec spec;
  spec.scenario.manager.limit_refresh_s = kMarker;  // precedes the flag
  std::vector<std::uint8_t> bytes = encode(spec);
  const std::size_t slot = offset_after_marker(bytes);
  ASSERT_LT(slot, bytes.size());
  EXPECT_EQ(bytes[slot], 0u);
  expect_decodes(bytes);
  bytes[slot] = 1;
  expect_rejected(bytes);
}

TEST(TwinSpecRetiredSlots, ManagerSampleCostMustBeZero) {
  TwinSpec spec;
  spec.scenario.manager.control_period_s = kMarker;  // precedes the slot
  std::vector<std::uint8_t> bytes = encode(spec);
  const std::size_t slot = offset_after_marker(bytes);
  ASSERT_LE(slot + sizeof(double), bytes.size());
  const double zero = 0.0;
  EXPECT_EQ(std::memcmp(&bytes[slot], &zero, sizeof(double)), 0);
  expect_decodes(bytes);
  for (const double bad : {0.008, std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<std::uint8_t> tampered = bytes;
    std::memcpy(&tampered[slot], &bad, sizeof(double));
    expect_rejected(tampered);
  }
}

}  // namespace
}  // namespace fluxpower::twin
