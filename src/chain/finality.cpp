#include "chain/finality.hpp"

#include "common/metrics.hpp"

namespace slicer::chain {

FinalityReader::FinalityReader(const Blockchain& chain,
                               const Address& contract, std::size_t depth)
    : chain_(chain), contract_(contract), depth_(depth) {}

TrustedDigest FinalityReader::read() const {
  if (chain_.height() <= depth_)
    throw StaleDigest("chain too short to bury the digest " +
                      std::to_string(depth_) + " blocks deep");
  if (metrics::enabled()) metrics::counter("chain.finality.reads").add();
  const Contract* raw = chain_.contract_at_depth(contract_, depth_);
  const auto* contract = dynamic_cast<const SlicerContract*>(raw);
  if (!contract)
    throw ProtocolError("no Slicer contract at the finality anchor");
  const Block* anchor = chain_.block_at_depth(depth_);
  TrustedDigest digest;
  digest.ac = contract->stored_ac();
  digest.shard_values = contract->stored_shard_values();
  digest.anchor_hash = anchor->header_hash();
  digest.anchor_height = anchor->number;
  return digest;
}

void FinalityReader::revalidate(const TrustedDigest& digest) const {
  if (chain_.is_canonical(digest.anchor_hash)) return;
  if (metrics::enabled())
    metrics::counter("chain.finality.stale_digests").add();
  throw StaleDigest("reorg removed the digest anchor at height " +
                    std::to_string(digest.anchor_height));
}

FinalityVerdict verify_with_finality(
    const FinalityReader& reader, const adscrypto::AccumulatorParams& params,
    std::span<const core::SearchToken> tokens,
    const std::function<std::vector<core::TokenReply>(const TrustedDigest&)>&
        fetch_replies,
    std::size_t prime_bits, std::size_t max_retries) {
  FinalityVerdict verdict;
  for (std::size_t attempt = 0; attempt <= max_retries; ++attempt) {
    const TrustedDigest digest = reader.read();
    const std::vector<core::TokenReply> replies = fetch_replies(digest);
    const bool ok = core::verify_query(params, digest.shard_values, tokens,
                                       replies, prime_bits);
    try {
      reader.revalidate(digest);
    } catch (const StaleDigest&) {
      // The anchor reorged away while the cloud answered / we verified:
      // whatever verdict we computed is against dead state. Re-read the
      // (possibly different) buried digest and run the cycle again.
      ++verdict.stale_retries;
      if (metrics::enabled())
        metrics::counter("chain.finality.stale_retries").add();
      continue;
    }
    verdict.verified = ok;
    verdict.anchor_height = digest.anchor_height;
    return verdict;
  }
  throw StaleDigest("digest anchor kept reorging after " +
                    std::to_string(max_retries) + " retries");
}

}  // namespace slicer::chain
