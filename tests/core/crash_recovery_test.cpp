// Kill-and-resume: a fault injected inside a parallel Build/Insert or
// Search region surfaces as a catchable FaultError (thread-pool exception
// propagation). A faulted insert leaves the owner unchanged, so it can be
// retried in place; a replacement process recovers from the last snapshot.
// Either way the resumed run is BIT-IDENTICAL to an uninterrupted one —
// including the owner's DRBG, which the version-2 snapshot carries
// precisely for this.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/fault.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

const std::vector<Record> kBatch1 = {{1, 42}, {2, 7}, {3, 99}, {4, 42}};
const std::vector<Record> kBatch2 = {{5, 120}, {6, 42}, {7, 13}, {8, 200}};

TEST(CrashRecovery, OwnerIngestWorkerFaultPropagatesThroughPool) {
  Rig rig = Rig::make(8, "crash-owner");
  rig.ingest(kBatch1);
  ScopedFaultPlan plan("core.owner.ingest.worker=nth:1");
  EXPECT_THROW(rig.owner->insert(kBatch2), FaultError);
  EXPECT_GE(FaultInjector::instance().fired("core.owner.ingest.worker"), 1u);
}

TEST(CrashRecovery, CloudSearchWorkerFaultPropagatesAndPoolSurvives) {
  Rig rig = Rig::make(8, "crash-cloud");
  rig.ingest(kBatch1);
  const auto tokens = rig.user->make_tokens(42, MatchCondition::kEqual);
  {
    ScopedFaultPlan plan("core.cloud.search.worker=nth:1");
    EXPECT_THROW(rig.cloud->search(tokens), FaultError);
  }
  // The pool must be fully usable after an aborted parallel region: the
  // same query runs clean and verifies once the plan is disarmed.
  const auto replies = rig.cloud->search(tokens);
  EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                           tokens, replies, rig.config.prime_bits));
  auto ids = rig.user->decrypt(replies);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RecordId>{1, 4}));
}

TEST(CrashRecovery, OwnerResumesBitIdenticalFromSnapshot) {
  // Reference run: no crash, two batches straight through.
  Rig steady = Rig::make(8, "crash-resume");
  steady.ingest(kBatch1);
  steady.ingest(kBatch2);

  // Crashing run, same identity: snapshot after batch 1, then die inside
  // the batch-2 parallel region.
  Rig crashing = Rig::make(8, "crash-resume");
  crashing.cloud->apply(crashing.owner->insert(kBatch1));
  const Bytes owner_snapshot = crashing.owner->serialize_state();
  const Bytes cloud_snapshot = crashing.cloud->serialize_state();
  {
    ScopedFaultPlan plan("core.owner.ingest.worker=nth:1");
    EXPECT_THROW(crashing.owner->insert(kBatch2), FaultError);
  }

  // Recovery: a replacement process with the same configured identity
  // restores both snapshots and redoes the interrupted insert.
  Rig resumed = Rig::make(8, "crash-resume");
  resumed.owner->restore_state(owner_snapshot);
  resumed.cloud->restore_state(cloud_snapshot);
  resumed.cloud->apply(resumed.owner->insert(kBatch2));

  // Bit-identical: accumulator, full owner state (trapdoor chains, set
  // hashes, primes, DRBG) and full cloud state match the uninterrupted run.
  EXPECT_EQ(resumed.owner->accumulator_value(),
            steady.owner->accumulator_value());
  EXPECT_EQ(resumed.owner->serialize_state(), steady.owner->serialize_state());
  EXPECT_EQ(resumed.cloud->serialize_state(), steady.cloud->serialize_state());

  // And the protocol continues: a fresh user of the resumed owner queries
  // the resumed cloud with verification intact.
  resumed.user.emplace(resumed.owner->export_user_state(),
                       crypto::Drbg(str_bytes("resumed-user")));
  const auto tokens = resumed.user->make_tokens(42, MatchCondition::kEqual);
  const auto replies = resumed.cloud->search(tokens);
  EXPECT_TRUE(verify_query(resumed.acc_params,
                           resumed.cloud->shard_values(), tokens,
                           replies, resumed.config.prime_bits));
  auto ids = resumed.user->decrypt(replies);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RecordId>{1, 4, 6}));
}

TEST(CrashRecovery, FaultedInsertLeavesOwnerUnchanged) {
  Rig steady = Rig::make(8, "crash-in-place");
  steady.ingest(kBatch1);
  const UpdateOutput steady_update = steady.owner->insert(kBatch2);
  steady.cloud->apply(steady_update);

  Rig faulted = Rig::make(8, "crash-in-place");
  faulted.ingest(kBatch1);
  const Bytes before = faulted.owner->serialize_state();
  // A fault on the first worker and one after several workers already
  // advanced their chains: neither may leak into T, S, X, the DRBG, the
  // used ids or the accumulator.
  for (const char* spec : {"core.owner.ingest.worker=nth:1",
                           "core.owner.ingest.worker=nth:5"}) {
    ScopedFaultPlan plan(spec);
    EXPECT_THROW(faulted.owner->insert(kBatch2), FaultError) << spec;
    EXPECT_EQ(faulted.owner->serialize_state(), before) << spec;
  }

  // The retry needs no snapshot restore (the ids are not claimed) and
  // lands exactly where the uninterrupted run did.
  const UpdateOutput retried = faulted.owner->insert(kBatch2);
  faulted.cloud->apply(retried);
  EXPECT_EQ(retried, steady_update);
  EXPECT_EQ(faulted.owner->serialize_state(), steady.owner->serialize_state());
  EXPECT_EQ(faulted.cloud->serialize_state(), steady.cloud->serialize_state());
}

TEST(CrashRecovery, ProbabilisticFaultsNeverCorruptAcceptedSearches) {
  Rig rig = Rig::make(8, "crash-prob");
  rig.ingest(kBatch1);
  const auto tokens = rig.user->make_tokens(10, MatchCondition::kGreater);

  // Under a 15% per-worker fault rate a search either throws FaultError or
  // returns a fully verifying reply set — never a silently damaged one.
  // (p keeps both outcomes overwhelmingly likely across 40 searches at any
  // thread count, where abort timing shifts the per-search hit spans.)
  ScopedFaultPlan plan("core.cloud.search.worker=p:0.15;seed=11");
  int threw = 0, clean = 0;
  for (int i = 0; i < 40; ++i) {
    try {
      const auto replies = rig.cloud->search(tokens);
      EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                               tokens, replies, rig.config.prime_bits))
          << "accepted search under faults must still verify";
      ++clean;
    } catch (const FaultError&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0) << "p=0.15 over 40 searches should fire at least once";
  EXPECT_GT(clean, 0) << "p=0.15 should also let some searches through";
}

}  // namespace
}  // namespace slicer::core
