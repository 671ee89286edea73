// Deterministic fault-injection registry.
//
// Any layer may declare a *fault site* — a named point where a failure can
// be injected — by calling `fault_point("layer.component.event")`. With no
// plan armed the call is one relaxed atomic load, so production and
// benchmark binaries pay nothing. A plan arms specific sites with a
// trigger:
//
//   nth:<k>    fire exactly once, on the k-th hit of the site (1-based)
//   every:<k>  fire on every k-th hit
//   p:<prob>   fire each hit with probability <prob>, decided by a
//              SplitMix64 hash of (seed, site, hit index) — deterministic
//              and independent of thread interleaving
//   always     fire on every hit
//
// A plan is armed only through FaultInjector::configure or ScopedFaultPlan
// (tests, the robustness soak), from a FaultPlan or its text form
// ("chain.mempool.drop=p:0.3;chain.seal.validator_down=nth:2;seed=7").
// No environment variable arms one. Per-site hit and fire counters are
// kept for assertions and the soak report.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/errors.hpp"

namespace slicer {

/// Thrown by fault sites that inject a failure as an exception (the
/// `fault_point_throw` helper). Catchable like every other slicer::Error.
class FaultError : public Error {
 public:
  explicit FaultError(const std::string& site)
      : Error("fault injected at " + site) {}
};

/// Trigger of one armed fault site.
struct FaultSpec {
  enum class Trigger { kNth, kEvery, kProbability, kAlways };
  Trigger trigger = Trigger::kAlways;
  std::uint64_t n = 1;  // kNth: the firing hit (1-based); kEvery: the period
  double p = 0.0;       // kProbability: per-hit firing probability
};

/// A named set of armed sites plus the seed for probabilistic triggers.
struct FaultPlan {
  std::map<std::string, FaultSpec, std::less<>> sites;
  std::uint64_t seed = 0;

  /// Parses the plan grammar described above. Throws DecodeError
  /// on malformed specs (unknown trigger, bad number, missing '=').
  static FaultPlan parse(std::string_view spec);
};

/// Process-wide fault registry. Disarmed unless a plan is installed.
class FaultInjector {
 public:
  /// The singleton; disarmed until a plan is configured.
  static FaultInjector& instance();

  /// Installs `plan` (resets all counters). An empty plan disarms.
  void configure(FaultPlan plan);

  /// Disarms and resets all counters.
  void clear();

  /// True when any site is armed — the only check on the hot path.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Records a hit of `site` and evaluates its trigger. Unarmed sites
  /// still count hits (so tests can assert a site was reached) but never
  /// fire.
  bool should_fire(std::string_view site);

  /// Counters for assertions and the soak report.
  std::uint64_t hits(std::string_view site) const;
  std::uint64_t fired(std::string_view site) const;

  /// The currently armed plan (empty when disarmed) — what ScopedFaultPlan
  /// restores on scope exit.
  FaultPlan current_plan() const;

 private:
  FaultInjector() = default;

  struct SiteState {
    FaultSpec spec;
    bool armed = false;
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };

  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  std::uint64_t seed_ = 0;
  std::map<std::string, SiteState, std::less<>> sites_;
};

/// Declares a fault site. Returns true when an armed trigger fires.
inline bool fault_point(std::string_view site) {
  FaultInjector& inj = FaultInjector::instance();
  if (!inj.armed()) return false;
  return inj.should_fire(site);
}

/// Fault site that surfaces as a FaultError when it fires — the form used
/// inside parallel Build/Search regions, where the thread pool must carry
/// the exception back to the caller.
inline void fault_point_throw(std::string_view site) {
  if (fault_point(site)) throw FaultError(std::string(site));
}

/// RAII plan installation: arms `plan` for the scope, restores the
/// previously armed plan (with fresh counters) on exit. Tests and the
/// robustness soak use this so fault state never leaks across cases.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan);
  explicit ScopedFaultPlan(std::string_view spec)
      : ScopedFaultPlan(FaultPlan::parse(spec)) {}
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  FaultPlan previous_;
};

}  // namespace slicer
