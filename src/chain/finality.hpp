// Finality-aware digest reads: trust the contract's accumulator only once
// it is buried, and survive the reorg that invalidates an in-flight
// verification.
//
// On a forking chain the digest a client reads from the tip can vanish: a
// competing branch wins fork choice and the UPDATE_AC / UPDATE_SHARDS
// transaction that published it is orphaned. vChain's client model (see
// PAPERS.md) answers this with a finality depth — only state buried d
// blocks under the tip is trusted, because a reorg deeper than d is
// considered infeasible (and the chain enforces a hard ceiling via
// BlockchainConfig::max_fork_depth, beyond which branches are pruned).
//
// FinalityReader reads the SlicerContract's digest as of the canonical
// block `depth` blocks below the tip and anchors it to that block's hash;
// revalidate() later re-checks the anchor is still canonical and throws
// StaleDigest when a reorg swept it away. verify_with_finality() wraps the
// whole read -> search -> verify -> revalidate cycle with a bounded retry,
// which is the client-side story for the `chain.reorg.during_dispute`
// fault site.
//
// This lives in src/chain (not src/core) because core is chain-agnostic by
// design: QueryClient verifies against owner-exported digests and never
// sees a block. The dependency points chain -> core, never back.
#pragma once

#include <cstddef>
#include <functional>

#include "chain/blockchain.hpp"
#include "chain/slicer_contract.hpp"
#include "core/verify.hpp"

namespace slicer::chain {

/// Thrown when the digest a verification ran against is no longer (or not
/// yet) part of the finalized canonical chain: the anchor block was
/// reorged away, or the chain is still too short to bury anything `depth`
/// deep. Retryable — re-read and re-verify.
class StaleDigest : public Error {
 public:
  explicit StaleDigest(const std::string& what) : Error(what) {}
};

/// A digest read frozen at a finality-buried canonical block.
struct TrustedDigest {
  bigint::BigUint ac;                          ///< folded accumulator value
  std::vector<bigint::BigUint> shard_values;   ///< per-shard values (K >= 1)
  Bytes anchor_hash;                           ///< header hash of the anchor block
  std::uint64_t anchor_height = 0;             ///< its height
};

/// Reads the SlicerContract's published digest at a configurable finality
/// depth below the canonical tip.
class FinalityReader {
 public:
  /// Default burial depth, well inside the chain's max_fork_depth.
  static constexpr std::size_t kDefaultDepth = 3;

  /// `depth` 0 trusts the tip outright (the pre-fork behavior).
  FinalityReader(const Blockchain& chain, const Address& contract,
                 std::size_t depth = kDefaultDepth);

  /// Digest as of the canonical block buried depth() blocks under the tip.
  /// Throws StaleDigest when the chain is too short to bury that deep and
  /// ProtocolError when no SlicerContract exists at the anchor.
  TrustedDigest read() const;

  /// Re-checks that the digest's anchor block is still canonical; throws
  /// StaleDigest if a reorg removed it. (A still-canonical anchor can only
  /// have been buried deeper in the meantime — burial is monotonic.)
  void revalidate(const TrustedDigest& digest) const;

  std::size_t depth() const { return depth_; }

 private:
  const Blockchain& chain_;
  Address contract_;
  std::size_t depth_;
};

/// Outcome of a finality-guarded verification.
struct FinalityVerdict {
  bool verified = false;        ///< the replies verified against a digest
                                ///< that stayed canonical
  std::size_t stale_retries = 0;///< attempts a reorg invalidated mid-flight
  std::uint64_t anchor_height = 0;  ///< the anchor the final verdict used
};

/// The full client cycle: read a buried digest, fetch the proof work from
/// the cloud *while holding it* (the in-flight window a reorg can hit),
/// verify against the digest, then revalidate the anchor. A StaleDigest on
/// revalidation discards the verdict and retries the whole cycle, up to
/// `max_retries` times; exhausting them rethrows StaleDigest. A StaleDigest
/// from the initial read (chain too short) propagates immediately — only
/// sealing more blocks can fix that, and that is the caller's lever.
FinalityVerdict verify_with_finality(
    const FinalityReader& reader, const adscrypto::AccumulatorParams& params,
    std::span<const core::SearchToken> tokens,
    const std::function<std::vector<core::TokenReply>(const TrustedDigest&)>&
        fetch_replies,
    std::size_t prime_bits, std::size_t max_retries = 4);

}  // namespace slicer::chain
