// Shared parsing for SLICER_* environment knobs.
//
// Every integer knob (SLICER_THREADS, SLICER_SHARDS, SLICER_PROOF_CACHE,
// SLICER_PORT, SLICER_TENANT_QPS, ...) goes through size_knob so the
// behaviour is uniform everywhere:
//   * unset or empty        → the documented default, silently;
//   * a well-formed integer → clamped into [min_value, max_value] (a clamp
//     is diagnosed once per knob on stderr — a typo like SLICER_SHARDS=2560
//     should not silently behave like 256);
//   * anything else         → the default, with a once-per-knob stderr
//     diagnostic naming the knob and the rejected value.
// Diagnostics go to stderr (never stdout — bench JSON is piped from stdout)
// and are rate-limited to one line per knob per process so a knob read on a
// hot path cannot spam the log.
#pragma once

#include <cstddef>

namespace slicer::env {

/// Parses the integer environment knob `name` as described above. The whole
/// value must be a base-10 unsigned integer; trailing garbage ("4x", "1e3")
/// is malformed, not truncated.
std::size_t size_knob(const char* name, std::size_t fallback,
                      std::size_t min_value, std::size_t max_value);

/// True when the flag knob `name` is set to anything non-empty except "0".
bool flag_knob(const char* name);

}  // namespace slicer::env
