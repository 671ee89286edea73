// Shared SLICER_* knob parsing: defaults, clamping, and malformed-value
// rejection must behave identically for every integer variable
// (SLICER_THREADS and the test and bench variables such as SLICER_SHARDS)
// and flag knob (SLICER_METRICS, SLICER_TRACE).
#include "common/env.hpp"

#include <gtest/gtest.h>

#include "tests/common/scoped_env.hpp"

namespace slicer::env {
namespace {

using slicer::testing::ScopedEnv;

TEST(EnvKnob, UnsetUsesFallback) {
  ScopedEnv guard("SLICER_TEST_UNSET", nullptr);
  EXPECT_EQ(size_knob("SLICER_TEST_UNSET", 7, 1, 100), 7u);
}

TEST(EnvKnob, EmptyUsesFallback) {
  ScopedEnv guard("SLICER_TEST_EMPTY", "");
  EXPECT_EQ(size_knob("SLICER_TEST_EMPTY", 7, 1, 100), 7u);
}

TEST(EnvKnob, WellFormedValueParses) {
  ScopedEnv guard("SLICER_TEST_OK", "42");
  EXPECT_EQ(size_knob("SLICER_TEST_OK", 7, 1, 100), 42u);
}

TEST(EnvKnob, OutOfRangeClamps) {
  {
    ScopedEnv guard("SLICER_TEST_HIGH", "5000");
    EXPECT_EQ(size_knob("SLICER_TEST_HIGH", 7, 1, 100), 100u);
  }
  {
    ScopedEnv guard("SLICER_TEST_LOW", "0");
    EXPECT_EQ(size_knob("SLICER_TEST_LOW", 7, 1, 100), 1u);
  }
}

TEST(EnvKnob, MalformedFallsBack) {
  const char* bad[] = {"4x", "1e3", "x4", " 4", "4 ", "-3", "0x10", "", "++1"};
  for (const char* value : bad) {
    ScopedEnv guard("SLICER_TEST_BAD", value);
    EXPECT_EQ(size_knob("SLICER_TEST_BAD", 7, 1, 100), 7u)
        << "value: '" << value << "'";
  }
}

TEST(EnvKnob, OverflowFallsBack) {
  // Larger than any uint64: strtoull saturates with ERANGE → malformed.
  ScopedEnv guard("SLICER_TEST_HUGE", "99999999999999999999999999");
  EXPECT_EQ(size_knob("SLICER_TEST_HUGE", 7, 1, 100), 7u);
}

TEST(EnvKnob, BoundaryValuesPassThrough) {
  {
    ScopedEnv guard("SLICER_TEST_MIN", "1");
    EXPECT_EQ(size_knob("SLICER_TEST_MIN", 7, 1, 100), 1u);
  }
  {
    ScopedEnv guard("SLICER_TEST_MAX", "100");
    EXPECT_EQ(size_knob("SLICER_TEST_MAX", 7, 1, 100), 100u);
  }
}

TEST(EnvFlag, UnsetAndZeroAreFalse) {
  {
    ScopedEnv guard("SLICER_TEST_FLAG", nullptr);
    EXPECT_FALSE(flag_knob("SLICER_TEST_FLAG"));
  }
  {
    ScopedEnv guard("SLICER_TEST_FLAG", "");
    EXPECT_FALSE(flag_knob("SLICER_TEST_FLAG"));
  }
  {
    ScopedEnv guard("SLICER_TEST_FLAG", "0");
    EXPECT_FALSE(flag_knob("SLICER_TEST_FLAG"));
  }
}

TEST(EnvFlag, NonEmptyIsTrue) {
  for (const char* value : {"1", "yes", "json", "true"}) {
    ScopedEnv guard("SLICER_TEST_FLAG", value);
    EXPECT_TRUE(flag_knob("SLICER_TEST_FLAG")) << value;
  }
}

}  // namespace
}  // namespace slicer::env
