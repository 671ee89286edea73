// SLICER_METRICS and SLICER_TRACE are flag knobs: "0" turns them off like
// every other env::flag_knob knob. Both flags are seeded once per process,
// so this check runs as its own ctest with SLICER_METRICS=0 and
// SLICER_TRACE=0 in its environment (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace slicer {
namespace {

TEST(InstrumentationKnobs, ZeroTurnsInstrumentationOff) {
  EXPECT_FALSE(metrics::enabled());
  EXPECT_FALSE(trace::enabled());
}

}  // namespace
}  // namespace slicer
