// Byzantine cloud for the robustness soak.
//
// MaliciousCloud wraps an honest CloudServer and applies one operation from
// the tampering taxonomy to its replies before returning them. The soak
// (tests/core/adversary_soak_test.cpp, bench/robustness_soak.cpp) asserts
// that Algorithm 5 verification rejects every *semantic* tamper and accepts
// the benign ones:
//
//   detected   kDropResult, kDuplicateResult, kForgeCiphertext,
//              kTruncateCiphertext, kInjectResult, kEmptyClaim,
//              kSwapWitnesses, kForgeWitness, kStaleReplay,
//              kWrongAccumulator
//   benign     kNone (honest passthrough) and kReorderResults — the
//              multiset hash is order-invariant BY DESIGN, so reordering
//              must still verify and decrypt to the same record set. It is
//              kept in the taxonomy as a control: a verifier that rejects
//              reorderings would be overfitted to the cloud's traversal
//              order, which the paper does not require.
//
// All choices (which token, which result, which byte) derive from a seed so
// a failing soak case replays exactly. The reply-only operations live in
// one function, tamper_replies(), which the wire-level soak
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
  // Aggregated-VO taxonomy (QueryReply from search_aggregated):
  kForgeAggregateWitness,   ///< perturb one shard's aggregate witness
  kSwapAggregateWitnesses,  ///< exchange the witnesses of two shard entries
  kDropAggregateShard,      ///< omit one touched shard's VO entry entirely
  kStaleAggregateReplay,    ///< replay a QueryReply recorded before an update
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

/// Taxonomy members applicable to the aggregated read path: every result
/// tamper (the digest fold is shared with the per-token path) plus the
/// aggregate-witness operations. kSwapWitnesses / kForgeWitness /
/// kWrongAccumulator have no per-token witness to act on here; their
/// aggregate counterparts cover the same intent.
inline constexpr std::array<Tamper, 11> kAggregateTampers = {
    Tamper::kDropResult,     Tamper::kDuplicateResult,
    Tamper::kReorderResults, Tamper::kForgeCiphertext,
    Tamper::kTruncateCiphertext, Tamper::kInjectResult,
    Tamper::kEmptyClaim,     Tamper::kForgeAggregateWitness,
    Tamper::kSwapAggregateWitnesses, Tamper::kDropAggregateShard,
    Tamper::kStaleAggregateReplay,
};

/// Taxonomy members that act on the clause batch of a plan search rather
/// than on any single reply. Every other member of kAllTampers and
/// kAggregateTampers except the stale replays also applies on the plan path
/// — search_plan routes it into one victim clause of the matching read path.
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
/// routed into one seeded victim clause of a read path it can act on.
/// Returns false — batch untouched — when the operation had nothing to act
/// on, and always for kNone and the stale replays, which need a recording
/// (MaliciousCloud::record_stale*). MaliciousCloud and the wire soak
/// (tampering decoded QUERY_PLAN reply frames) share this one function.
bool tamper_replies(Tamper tamper, std::vector<ClauseReply>& replies,
                    const bigint::BigUint& modulus, const bigint::BigUint& ac,
                    TamperRng& rng);

/// A cloud that answers honestly, then lies in one specific way.
class MaliciousCloud {
 public:
  struct Output {
    std::vector<TokenReply> replies;
    /// False when the configured tamper had nothing to act on (e.g. drop a
    /// result from an all-empty reply set): the replies are then honest and
    /// the soak skips the case rather than mis-counting a detection.
    bool tampered = false;
  };

  MaliciousCloud(const CloudServer& honest, Tamper tamper, std::uint64_t seed)
      : honest_(honest), tamper_(tamper), rng_(seed) {}

  struct AggregateOutput {
    QueryReply reply;
    /// Same skip semantics as Output::tampered.
    bool tampered = false;
  };

  /// Honest search, then the tamper op. Deterministic in (seed, call#).
  Output search(std::span<const SearchToken> tokens) const;

  /// Aggregated-VO counterpart: honest search_aggregated, then one
  /// operation from kAggregateTampers applied to the QueryReply.
  AggregateOutput search_aggregated(std::span<const SearchToken> tokens) const;

  struct PlanOutput {
    std::vector<ClauseReply> replies;
    /// Same skip semantics as Output::tampered.
    bool tampered = false;
  };

  /// Plan-search counterpart: honest search_plan, then tamper_replies (or,
  /// for kStaleClauseVO, one clause served from the recording).
  PlanOutput search_plan(std::span<const ClauseRequest> requests) const;

  /// Captures the honest clause replies for `requests` now; a later
  /// kStaleClauseVO search_plan swaps one genuinely-changed clause reply
  /// for its recorded (stale) version. Call before the owner's next update.
  void record_stale_plan(std::span<const ClauseRequest> requests);

  /// Captures the honest replies for `tokens` now; a later kStaleReplay
  /// search returns them verbatim. Call before the owner's next update so
  /// the recorded accumulator/witness state is genuinely stale.
  void record_stale(std::span<const SearchToken> tokens);

  /// Aggregated counterpart for kStaleAggregateReplay.
  void record_stale_aggregated(std::span<const SearchToken> tokens);

  Tamper tamper() const { return tamper_; }

 private:
  /// tamper_replies with this cloud's operation, public state and stream.
  bool apply_tamper(std::vector<ClauseReply>& replies) const;

  const CloudServer& honest_;
  Tamper tamper_;
  mutable TamperRng rng_;
  std::vector<TokenReply> stale_;
  QueryReply stale_agg_;
  std::vector<ClauseReply> stale_plan_;
};

}  // namespace slicer::core
