// Parallel-vs-serial determinism: Build, Insert and Search must produce
// byte-identical outputs at every thread count. All parallel regions write
// per-index output slots and all randomness is drawn serially in keyword
// order, so SLICER_THREADS only changes wall-clock time, never bytes.
#include <gtest/gtest.h>

#include <optional>

#include "common/thread_pool.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

std::vector<Record> det_records(std::size_t n, std::size_t bits,
                                std::uint64_t id_base) {
  crypto::Drbg rng(str_bytes("par-det-records-" + std::to_string(id_base)));
  std::vector<Record> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(Record{static_cast<RecordId>(id_base + i),
                         rng.uniform(1ull << bits)});
  return out;
}

/// Everything observable from one full protocol run, in wire form.
struct RunTranscript {
  std::vector<std::pair<Bytes, Bytes>> build_entries;
  std::vector<bigint::BigUint> build_primes;
  bigint::BigUint build_ac;
  std::vector<std::pair<Bytes, Bytes>> insert_entries;
  std::vector<bigint::BigUint> insert_primes;
  bigint::BigUint insert_ac;
  std::vector<Bytes> reply_bytes;
  bool all_verified = true;

  bool operator==(const RunTranscript&) const = default;
};

/// Runs Build → Search → Insert → Search on a fresh deterministic rig and
/// records every output byte. The rig's seeds are fixed, so any divergence
/// between calls can only come from the thread configuration.
RunTranscript run_protocol() {
  constexpr std::size_t kBits = 10;
  Rig rig = Rig::make(kBits, "parallel-determinism");
  RunTranscript t;

  const UpdateOutput build = rig.owner->insert(det_records(48, kBits, 1));
  t.build_entries = build.entries;
  t.build_primes = build.new_primes;
  t.build_ac = build.accumulator_value;
  rig.cloud->apply(build);
  rig.user->refresh(rig.owner->export_user_state());

  const auto record_search = [&](std::uint64_t value, MatchCondition mc) {
    const auto tokens = rig.user->make_tokens(value, mc);
    const auto replies = rig.cloud->search(tokens);
    t.all_verified = t.all_verified &&
                     verify_query(rig.acc_params, rig.cloud->shard_values(),
                                  tokens, replies, rig.config.prime_bits);
    for (const TokenReply& r : replies) t.reply_bytes.push_back(r.serialize());
  };
  record_search(1ull << (kBits - 1), MatchCondition::kGreater);
  record_search(200, MatchCondition::kLess);

  const UpdateOutput ins = rig.owner->insert(det_records(16, kBits, 1000));
  t.insert_entries = ins.entries;
  t.insert_primes = ins.new_primes;
  t.insert_ac = ins.accumulator_value;
  rig.cloud->apply(ins);
  rig.user->refresh(rig.owner->export_user_state());
  record_search(300, MatchCondition::kGreater);

  return t;
}

TEST(ParallelDeterminism, BuildSearchInsertBitIdenticalAcrossThreadCounts) {
  RunTranscript serial;
  {
    ThreadPool::ScopedSerial force_serial;
    serial = run_protocol();
  }
  ASSERT_TRUE(serial.all_verified);
  ASSERT_FALSE(serial.reply_bytes.empty());

  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool::ScopedPool pool(threads);
    const RunTranscript parallel = run_protocol();
    EXPECT_TRUE(parallel.all_verified) << threads << " threads";
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(ParallelDeterminism, SearchRepliesKeepSubmissionOrder) {
  // Token i's reply must land at index i even when tokens finish out of
  // order — results are written to per-index slots, not appended.
  constexpr std::size_t kBits = 10;
  Rig rig = Rig::make(kBits, "reply-order");
  rig.ingest(det_records(40, kBits, 1));

  const auto tokens = rig.user->make_tokens(1ull << (kBits - 1),
                                            MatchCondition::kGreater);
  std::vector<TokenReply> serial;
  {
    ThreadPool::ScopedSerial force_serial;
    serial = rig.cloud->search(tokens);
  }
  ThreadPool::ScopedPool pool(4);
  const auto parallel = rig.cloud->search(tokens);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].witness, serial[i].witness) << i;
    EXPECT_EQ(parallel[i].encrypted_results, serial[i].encrypted_results) << i;
  }
}

}  // namespace
}  // namespace slicer::core
