#include "common/fault.hpp"

#include <charconv>
#include <cstdlib>

namespace slicer {

namespace {

/// SplitMix64 — the standard 64-bit finalizer; enough mixing to turn
/// (seed, site hash, hit index) into an unbiased coin.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t parse_u64(std::string_view s, std::string_view what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw DecodeError("fault plan: bad " + std::string(what) + " '" +
                      std::string(s) + "'");
  return v;
}

double parse_prob(std::string_view s) {
  // std::from_chars<double> is still patchy across stdlibs; strtod on a
  // bounded copy is fine for a config string.
  const std::string copy(s);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || v < 0.0 || v > 1.0)
    throw DecodeError("fault plan: bad probability '" + copy + "'");
  return v;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find_first_of(";,", pos);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view item = spec.substr(pos, end - pos);
    pos = end + 1;
    // Tolerate whitespace around items — this is an env-var grammar.
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t'))
      item.remove_prefix(1);
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t'))
      item.remove_suffix(1);
    if (item.empty()) continue;

    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos)
      throw DecodeError("fault plan: missing '=' in '" + std::string(item) +
                        "'");
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);

    if (key == "seed") {
      plan.seed = parse_u64(value, "seed");
      continue;
    }

    FaultSpec fault;
    if (value == "always") {
      fault.trigger = FaultSpec::Trigger::kAlways;
    } else if (value.starts_with("nth:")) {
      fault.trigger = FaultSpec::Trigger::kNth;
      fault.n = parse_u64(value.substr(4), "nth count");
      if (fault.n == 0) throw DecodeError("fault plan: nth count must be >= 1");
    } else if (value.starts_with("every:")) {
      fault.trigger = FaultSpec::Trigger::kEvery;
      fault.n = parse_u64(value.substr(6), "every period");
      if (fault.n == 0)
        throw DecodeError("fault plan: every period must be >= 1");
    } else if (value.starts_with("p:")) {
      fault.trigger = FaultSpec::Trigger::kProbability;
      fault.p = parse_prob(value.substr(2));
    } else {
      throw DecodeError("fault plan: unknown trigger '" + std::string(value) +
                        "'");
    }
    plan.sites[std::string(key)] = fault;
  }
  return plan;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::configure(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.clear();
  seed_ = plan.seed;
  for (auto& [name, spec] : plan.sites) {
    SiteState state;
    state.spec = spec;
    state.armed = true;
    sites_.emplace(name, state);
  }
  armed_.store(!plan.sites.empty(), std::memory_order_relaxed);
}

void FaultInjector::clear() { configure(FaultPlan{}); }

bool FaultInjector::should_fire(std::string_view site) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end())
    it = sites_.emplace(std::string(site), SiteState{}).first;
  SiteState& s = it->second;
  const std::uint64_t hit = ++s.hits;
  if (!s.armed) return false;

  bool fire = false;
  switch (s.spec.trigger) {
    case FaultSpec::Trigger::kNth:
      fire = hit == s.spec.n;
      break;
    case FaultSpec::Trigger::kEvery:
      fire = hit % s.spec.n == 0;
      break;
    case FaultSpec::Trigger::kProbability: {
      const std::uint64_t h =
          splitmix64(seed_ ^ splitmix64(fnv1a(site) ^ splitmix64(hit)));
      // Top 53 bits → uniform double in [0, 1).
      const double u =
          static_cast<double>(h >> 11) * 0x1.0p-53;
      fire = u < s.spec.p;
      break;
    }
    case FaultSpec::Trigger::kAlways:
      fire = true;
      break;
  }
  if (fire) ++s.fired;
  return fire;
}

std::uint64_t FaultInjector::hits(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

std::uint64_t FaultInjector::fired(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fired;
}

FaultPlan FaultInjector::current_plan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FaultPlan plan;
  plan.seed = seed_;
  for (const auto& [name, state] : sites_)
    if (state.armed) plan.sites[name] = state.spec;
  return plan;
}

ScopedFaultPlan::ScopedFaultPlan(FaultPlan plan) {
  FaultInjector& inj = FaultInjector::instance();
  // Counters are not preserved across a scope — each scope starts fresh.
  previous_ = inj.current_plan();
  inj.configure(std::move(plan));
}

ScopedFaultPlan::~ScopedFaultPlan() {
  FaultInjector::instance().configure(std::move(previous_));
}

}  // namespace slicer
