// RAII override of one environment variable for tests that construct
// objects reading a SLICER_* knob.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace slicer::testing {

/// Sets `name` to `value` (unsets it for nullptr) and puts back the value
/// it had before on destruction, so a suite run under an outer setting
/// (e.g. `SLICER_PROOF_CACHE=0`) keeps it for the tests that follow.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* prior = std::getenv(name)) prior_ = prior;
    set(value);
  }
  ~ScopedEnv() { set(prior_ ? prior_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) {
    if (value == nullptr) {
      ::unsetenv(name_.c_str());
    } else {
      ::setenv(name_.c_str(), value, /*overwrite=*/1);
    }
  }

  std::string name_;
  std::optional<std::string> prior_;
};

}  // namespace slicer::testing
