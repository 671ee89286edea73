// Byzantine cloud for the robustness soak.
//
// MaliciousCloud wraps an honest CloudServer and applies one operation from
// the tampering taxonomy to its clause-batch replies before returning them.
// Its one entry point is search_plan, the QUERY_PLAN shape the wire
// carries; a one-clause request is a plain search. The soak
// (tests/core/adversary_soak_test.cpp, bench/robustness_soak.cpp) asserts
// that Algorithm 5 verification rejects every *semantic* tamper and accepts
// the benign ones:
//
//   detected   kDropResult, kDuplicateResult, kForgeCiphertext,
//              kTruncateCiphertext, kInjectResult, kEmptyClaim,
//              kSwapWitnesses, kForgeWitness, kStaleReplay,
//              kWrongAccumulator, kDropClause, kSwapClauseReplies,
//              kStaleClauseVO
//   benign     kNone (honest passthrough) and kReorderResults — the
//              multiset hash is order-invariant BY DESIGN, so reordering
//              must still verify and decrypt to the same record set. It is
//              kept in the taxonomy as a control: a verifier that rejects
//              reorderings would be overfitted to the cloud's traversal
//              order, which the paper does not require.
//
// The two stale replays read one recording (record_stale) taken before an
// owner update: kStaleReplay serves the whole recorded batch, kStaleClauseVO
// serves one changed clause among fresh ones. Either bites only when some
// clause changed since the recording.
//
// All choices (which clause, token, result, byte) derive from a seed so a
// failing soak case replays exactly. The reply-only operations live in one
// function, tamper_replies(), which the wire-level soak
// (tests/net/byzantine_wire_test.cpp) applies to decoded QUERY_PLAN reply
// frames — one taxonomy implementation for both boundaries.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/cloud.hpp"
#include "core/messages.hpp"

namespace slicer::core {

/// One operation from the tampering taxonomy.
enum class Tamper {
  kNone,                ///< honest passthrough (control)
  kDropResult,          ///< remove one encrypted result
  kDuplicateResult,     ///< return one encrypted result twice
  kReorderResults,      ///< permute results (benign — multiset hash)
  kForgeCiphertext,     ///< flip one byte of one result
  kTruncateCiphertext,  ///< shorten one result by one byte
  kInjectResult,        ///< append a fabricated ciphertext
  kEmptyClaim,          ///< claim "no matches" while keeping the witness
  kSwapWitnesses,       ///< exchange the VOs of two tokens
  kForgeWitness,        ///< perturb the witness value
  kStaleReplay,         ///< replay a reply recorded before an update
  kWrongAccumulator,    ///< witness "computed" against the wrong accumulator
  // Plan-level taxonomy (ClauseReply batch from search_plan):
  kDropClause,         ///< omit one clause's reply from the batch
  kSwapClauseReplies,  ///< exchange the replies of two clauses
  kStaleClauseVO,      ///< serve one clause from a pre-update recording
};

/// Every per-token taxonomy member except kNone, in declaration order.
inline constexpr std::array<Tamper, 11> kAllTampers = {
    Tamper::kDropResult,     Tamper::kDuplicateResult,
    Tamper::kReorderResults, Tamper::kForgeCiphertext,
    Tamper::kTruncateCiphertext, Tamper::kInjectResult,
    Tamper::kEmptyClaim,     Tamper::kSwapWitnesses,
    Tamper::kForgeWitness,   Tamper::kStaleReplay,
    Tamper::kWrongAccumulator,
};

/// Taxonomy members that act on the clause batch rather than on any single
/// reply; the members of kAllTampers act on one seeded victim clause (or,
/// for kStaleReplay, replay the whole recorded batch).
inline constexpr std::array<Tamper, 3> kPlanTampers = {
    Tamper::kDropClause,
    Tamper::kSwapClauseReplies,
    Tamper::kStaleClauseVO,
};

std::string_view tamper_name(Tamper t);

/// True for operations verification MUST still accept (order-invariance).
inline constexpr bool tamper_is_benign(Tamper t) {
  return t == Tamper::kNone || t == Tamper::kReorderResults;
}

/// The seeded choice stream behind every tamper (which clause, token,
/// result, byte): deterministic in (seed, draw#).
class TamperRng {
 public:
  explicit TamperRng(std::uint64_t seed) : seed_(seed) {}
  /// The next draw in [0, bound) — the full 64-bit range for bound 0.
  /// Bounds are small (indices, byte offsets), so modulo bias is moot.
  std::uint64_t operator()(std::uint64_t bound);

 private:
  std::uint64_t seed_;
  std::uint64_t draws_ = 0;
};

/// Applies one taxonomy operation to an already-computed clause reply
/// batch, in place, using nothing but the replies and the public
/// accumulator state (`modulus` keeps forged witnesses in range; `ac` is
/// the value kWrongAccumulator presents as a witness). kDropClause and
/// kSwapClauseReplies act on the batch; every single-reply operation is
/// routed into one seeded victim clause. Returns false — batch untouched —
/// when the operation had nothing to act on, and always for kNone and the
/// stale replays, which need a recording (MaliciousCloud::record_stale).
/// MaliciousCloud and the wire soak (tampering decoded QUERY_PLAN reply
/// frames) share this one function.
bool tamper_replies(Tamper tamper, std::vector<ClauseReply>& replies,
                    const bigint::BigUint& modulus, const bigint::BigUint& ac,
                    TamperRng& rng);

/// A cloud that answers honestly, then lies in one specific way.
class MaliciousCloud {
 public:
  struct Output {
    std::vector<ClauseReply> replies;
    /// False when the configured tamper had nothing to act on (e.g. drop a
    /// result from an all-empty reply set): the replies are then honest and
    /// the soak skips the case rather than mis-counting a detection.
    bool tampered = false;
  };

  MaliciousCloud(const CloudServer& honest, Tamper tamper, std::uint64_t seed)
      : honest_(honest), tamper_(tamper), rng_(seed) {}

  /// Honest search_plan, then the tamper op: tamper_replies, or for the
  /// stale replays the recording. Deterministic in (seed, call#).
  Output search_plan(std::span<const ClauseRequest> requests) const;

  /// Captures the honest clause replies for `requests` now, for a later
  /// kStaleReplay or kStaleClauseVO search_plan. Call before the owner's
  /// next update so the recorded accumulator/witness state goes stale.
  void record_stale(std::span<const ClauseRequest> requests);

  Tamper tamper() const { return tamper_; }

 private:
  const CloudServer& honest_;
  Tamper tamper_;
  mutable TamperRng rng_;
  std::vector<ClauseReply> stale_;
};

}  // namespace slicer::core
