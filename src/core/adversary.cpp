#include "core/adversary.hpp"

#include <algorithm>

#include "common/errors.hpp"

namespace slicer::core {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One single-reply operation on one clause reply; true iff it bit.
bool tamper_clause(Tamper tamper, ClauseReply& reply,
                   const bigint::BigUint& modulus, const bigint::BigUint& ac,
                   TamperRng& rng) {
  std::vector<std::vector<Bytes>*> lists;
  std::vector<bigint::BigUint*> ws;
  for (TokenReply& tr : reply.replies) {
    lists.push_back(&tr.encrypted_results);
    ws.push_back(&tr.witness);
  }
  if (lists.empty()) return false;  // no tokens: nothing to act on
  // A seeded pick among the result lists holding at least `min` results.
  const auto pick = [&](std::size_t min) -> std::vector<Bytes>* {
    std::vector<std::vector<Bytes>*> c;
    for (std::vector<Bytes>* er : lists)
      if (er->size() >= min) c.push_back(er);
    return c.empty() ? nullptr : c[rng(c.size())];
  };

  switch (tamper) {
    case Tamper::kDropResult: {
      std::vector<Bytes>* er = pick(1);
      if (er == nullptr) return false;
      er->erase(er->begin() + static_cast<std::ptrdiff_t>(rng(er->size())));
      return true;
    }

    case Tamper::kDuplicateResult: {
      std::vector<Bytes>* er = pick(1);
      if (er == nullptr) return false;
      er->push_back((*er)[rng(er->size())]);
      return true;
    }

    case Tamper::kReorderResults: {
      std::vector<Bytes>* er = pick(2);
      if (er == nullptr) return false;
      std::rotate(er->begin(),
                  er->begin() + 1 +
                      static_cast<std::ptrdiff_t>(rng(er->size() - 1)),
                  er->end());
      return true;  // tampered, but benign: must still verify
    }

    case Tamper::kForgeCiphertext: {
      std::vector<Bytes>* er = pick(1);
      if (er == nullptr) return false;
      Bytes& victim = (*er)[rng(er->size())];
      if (victim.empty()) return false;
      victim[rng(victim.size())] ^= static_cast<std::uint8_t>(
          1 + rng(255));  // non-zero mask: guaranteed to change the byte
      return true;
    }

    case Tamper::kTruncateCiphertext: {
      std::vector<Bytes>* er = pick(1);
      if (er == nullptr) return false;
      Bytes& victim = (*er)[rng(er->size())];
      if (victim.empty()) return false;
      victim.pop_back();
      return true;
    }

    case Tamper::kInjectResult: {
      // Bites even on empty result lists — a fabricated 16-byte record.
      Bytes fake(16);
      for (auto& b : fake) b = static_cast<std::uint8_t>(rng(256));
      lists[rng(lists.size())]->push_back(std::move(fake));
      return true;
    }

    case Tamper::kEmptyClaim: {
      std::vector<Bytes>* er = pick(1);
      if (er == nullptr) return false;
      er->clear();
      return true;
    }

    case Tamper::kSwapWitnesses: {
      if (ws.size() < 2) return false;
      const std::size_t i = rng(ws.size());
      std::size_t k = rng(ws.size() - 1);
      if (k >= i) ++k;
      if (*ws[i] == *ws[k]) return false;  // no-op swap
      std::swap(*ws[i], *ws[k]);
      return true;
    }

    case Tamper::kForgeWitness: {
      if (ws.empty()) return false;
      bigint::BigUint& w = *ws[rng(ws.size())];
      w = bigint::BigUint::add_mod(w, bigint::BigUint(1), modulus);
      return true;
    }

    case Tamper::kWrongAccumulator: {
      // The "lazy cloud": presents the accumulator value itself as the
      // witness — i.e. a witness computed against the wrong (trivial)
      // accumulator. Verification needs witness^p == value, so this never
      // passes for a non-degenerate modulus.
      if (ws.empty()) return false;
      bigint::BigUint& w = *ws[rng(ws.size())];
      w = w == ac ? bigint::BigUint::add_mod(ac, bigint::BigUint(1), modulus)
                  : ac;
      return true;
    }

    default:
      // kNone, the clause-batch operations and the stale replays.
      return false;
  }
}

}  // namespace

std::uint64_t TamperRng::operator()(std::uint64_t bound) {
  const std::uint64_t v = splitmix64(seed_ ^ splitmix64(++draws_));
  return bound == 0 ? v : v % bound;
}

bool tamper_replies(Tamper tamper, std::vector<ClauseReply>& replies,
                    const bigint::BigUint& modulus, const bigint::BigUint& ac,
                    TamperRng& rng) {
  switch (tamper) {
    case Tamper::kDropClause:
      if (replies.empty()) return false;
      replies.erase(replies.begin() +
                    static_cast<std::ptrdiff_t>(rng(replies.size())));
      return true;

    case Tamper::kSwapClauseReplies: {
      if (replies.size() < 2) return false;
      const std::size_t i = rng(replies.size());
      std::size_t k = rng(replies.size() - 1);
      if (k >= i) ++k;
      if (replies[i] == replies[k]) return false;  // no-op swap
      std::swap(replies[i], replies[k]);
      return true;
    }

    default:
      // One victim clause; every other clause stays honest.
      if (replies.empty()) return false;
      return tamper_clause(tamper, replies[rng(replies.size())], modulus, ac,
                           rng);
  }
}

std::string_view tamper_name(Tamper t) {
  switch (t) {
    case Tamper::kNone: return "none";
    case Tamper::kDropResult: return "drop_result";
    case Tamper::kDuplicateResult: return "duplicate_result";
    case Tamper::kReorderResults: return "reorder_results";
    case Tamper::kForgeCiphertext: return "forge_ciphertext";
    case Tamper::kTruncateCiphertext: return "truncate_ciphertext";
    case Tamper::kInjectResult: return "inject_result";
    case Tamper::kEmptyClaim: return "empty_claim";
    case Tamper::kSwapWitnesses: return "swap_witnesses";
    case Tamper::kForgeWitness: return "forge_witness";
    case Tamper::kStaleReplay: return "stale_replay";
    case Tamper::kWrongAccumulator: return "wrong_accumulator";
    case Tamper::kDropClause: return "drop_clause";
    case Tamper::kSwapClauseReplies: return "swap_clause_replies";
    case Tamper::kStaleClauseVO: return "stale_clause_vo";
  }
  return "unknown";
}

bool MaliciousCloud::apply_tamper(std::vector<ClauseReply>& replies) const {
  return tamper_replies(tamper_, replies, honest_.accumulator_params().modulus,
                        honest_.accumulator_value(), rng_);
}

void MaliciousCloud::record_stale(std::span<const SearchToken> tokens) {
  stale_ = honest_.search(tokens);
}

void MaliciousCloud::record_stale_plan(
    std::span<const ClauseRequest> requests) {
  stale_plan_ = honest_.search_plan(requests);
}

MaliciousCloud::Output MaliciousCloud::search(
    std::span<const SearchToken> tokens) const {
  Output out;
  if (tamper_ == Tamper::kStaleReplay) {
    out.replies = honest_.search(tokens);
    // Replay only a genuinely stale recording of this query's shape.
    if (stale_.size() != out.replies.size()) return out;
    bool differs = false;
    for (std::size_t i = 0; i < stale_.size(); ++i)
      if (!(stale_[i].witness == out.replies[i].witness) ||
          stale_[i].encrypted_results != out.replies[i].encrypted_results)
        differs = true;
    if (!differs) return out;
    out.replies = stale_;
    out.tampered = true;
    return out;
  }
  std::vector<ClauseReply> batch(1);
  batch[0].replies = honest_.search(tokens);
  out.tampered = apply_tamper(batch);
  out.replies = std::move(batch[0].replies);
  return out;
}

MaliciousCloud::PlanOutput MaliciousCloud::search_plan(
    std::span<const ClauseRequest> requests) const {
  PlanOutput out;
  out.replies = honest_.search_plan(requests);
  if (tamper_ != Tamper::kStaleClauseVO) {
    out.tampered = apply_tamper(out.replies);
    return out;
  }
  if (stale_plan_.size() != out.replies.size())
    return out;  // record_stale_plan not run for this plan shape
  // Serve ONE clause from the pre-update recording — the other clauses stay
  // fresh, so only per-clause verification can catch it.
  std::vector<std::size_t> changed;
  for (std::size_t i = 0; i < out.replies.size(); ++i)
    if (!(stale_plan_[i] == out.replies[i])) changed.push_back(i);
  if (changed.empty()) return out;  // nothing changed since recording
  const std::size_t victim = changed[rng_(changed.size())];
  out.replies[victim] = stale_plan_[victim];
  out.tampered = true;
  return out;
}

}  // namespace slicer::core
