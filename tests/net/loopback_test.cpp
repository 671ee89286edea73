// Loopback round-trips of the full wire protocol: every opcode (HELLO,
// PING, APPLY, QUERY_PLAN) against a live SlicerServer, under a single-lane and a multi-lane thread pool,
// plus the protocol-state machine (hello-first, duplicate hello, unknown
// tenant, retired opcodes), connection limits, idle timeout + client reconnect, tenant
// isolation, reply ordering under pipelining, and progress while every pool
// worker is busy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/serial.hpp"
#include "common/thread_pool.hpp"
#include "core/verify.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "tests/net/net_test_util.hpp"

namespace slicer::net {
namespace {

using core::MatchCondition;
using core::Record;
using core::testing::plain_query;
using core::testing::Rig;
using testing::RawClient;
using testing::search;
using testing::take_cloud;

std::vector<Record> sample_records() {
  std::vector<Record> out;
  for (std::uint64_t i = 0; i < 24; ++i) out.push_back({i + 1, (i * 53) % 256});
  return out;
}

void run_every_opcode(std::size_t threads) {
  ThreadPool::ScopedPool pool(threads);
  Rig rig = Rig::make(8, "net-loopback", {}, 2);
  const auto records = sample_records();
  const core::UpdateOutput update = rig.owner->insert(records);
  rig.user->refresh(rig.owner->export_user_state());

  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  SlicerClientChannel ch(server.port(), "alpha");
  EXPECT_EQ(ch.hello().tenant, "alpha");
  EXPECT_EQ(ch.hello().shard_count, 2u);
  EXPECT_EQ(ch.hello().prime_count, 0u);

  ch.ping();  // kPing / kPong

  // kApply: the owner's batch ships over the wire; the reply's prime count
  // is the idempotency fingerprint.
  EXPECT_EQ(ch.apply(update), rig.owner->primes().size());
  EXPECT_EQ(server.tenant("alpha").prime_count(), rig.owner->primes().size());

  // kQueryPlan: a whole two-clause batch in one round trip, verified per
  // clause through verify_plan against the owner's (trusted) shard values
  // exactly as an in-process deployment would.
  QueryPlanRequest plan;
  plan.clauses.resize(2);
  plan.clauses[0].tokens = rig.user->make_tokens(42, MatchCondition::kGreater);
  plan.clauses[1].tokens = rig.user->make_tokens(42, MatchCondition::kLess);
  const QueryPlanReply plan_reply = ch.query_plan(plan);
  const core::PlanVerification pv =
      core::verify_plan(rig.acc_params, rig.owner->shard_values(),
                        plan.clauses, plan_reply.clauses,
                        rig.config.prime_bits);
  EXPECT_TRUE(pv.verified);
  ASSERT_EQ(plan_reply.clauses.size(), 2u);
  auto gt_ids = rig.user->decrypt(plan_reply.clauses[0].replies);
  std::sort(gt_ids.begin(), gt_ids.end());
  EXPECT_EQ(gt_ids, plain_query(records, 42, MatchCondition::kGreater));
  auto lt_ids = rig.user->decrypt(plan_reply.clauses[1].replies);
  std::sort(lt_ids.begin(), lt_ids.end());
  EXPECT_EQ(lt_ids, plain_query(records, 42, MatchCondition::kLess));

  server.stop();
}

TEST(Loopback, EveryOpcodeSingleLane) { run_every_opcode(1); }
TEST(Loopback, EveryOpcodeFourLanes) { run_every_opcode(4); }

TEST(Loopback, TenantIsolation) {
  Rig alpha = Rig::make(8, "net-tenant-a", {}, 1);
  Rig beta = Rig::make(8, "net-tenant-b", {}, 1);
  const auto records = sample_records();
  const core::UpdateOutput update = alpha.owner->insert(records);
  alpha.user->refresh(alpha.owner->export_user_state());

  SlicerServer server;
  server.add_tenant("alpha", take_cloud(alpha));
  server.add_tenant("beta", take_cloud(beta));
  server.start();

  SlicerClientChannel ch_a(server.port(), "alpha");
  ch_a.apply(update);

  // Beta's database is untouched by alpha's APPLY.
  SlicerClientChannel ch_b(server.port(), "beta");
  EXPECT_EQ(ch_b.hello().prime_count, 0u);
  EXPECT_EQ(server.tenant("beta").prime_count(), 0u);
  EXPECT_EQ(server.tenant("alpha").prime_count(),
            alpha.owner->primes().size());

  // Alpha still answers verified queries with beta connected.
  const auto tokens = alpha.user->make_tokens(100, MatchCondition::kLess);
  const auto replies = search(ch_a, tokens);
  EXPECT_TRUE(core::verify_query(alpha.acc_params, alpha.owner->shard_values(),
                                 tokens, replies, alpha.config.prime_bits));
}

TEST(Loopback, UnknownTenantRejected) {
  Rig rig = Rig::make(8, "net-unknown-tenant");
  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();
  try {
    SlicerClientChannel ch(server.port(), "nobody");
    FAIL() << "hello for an unknown tenant must be rejected";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), "hello");
  }
}

TEST(Loopback, HelloMustComeFirst) {
  Rig rig = Rig::make(8, "net-hello-first");
  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  raw.send(Op::kPing, BytesView{});
  const Frame reply = raw.read_frame();
  ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kError);
  EXPECT_EQ(ErrorReply::deserialize(reply.payload).code, "hello");
  // The server closes the connection after the protocol violation.
  EXPECT_TRUE(raw.sock.recv_some().empty());
}

TEST(Loopback, DuplicateHelloRejected) {
  Rig rig = Rig::make(8, "net-dup-hello");
  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  SlicerClientChannel ch(server.port(), "alpha");
  // A second HELLO on the live channel is a protocol violation.
  try {
    RawClient raw(server.port());
    HelloRequest req;
    req.tenant = "alpha";
    raw.send(Op::kHello, req.serialize());
    ASSERT_EQ(static_cast<Op>(raw.read_frame().opcode), Op::kHelloOk);
    raw.send(Op::kHello, req.serialize());
    const Frame reply = raw.read_frame();
    ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kError);
    EXPECT_EQ(ErrorReply::deserialize(reply.payload).code, "protocol");
  } catch (const NetError& e) {
    FAIL() << e.what();
  }
}

TEST(Loopback, MalformedFramingClosesWithDecodeError) {
  Rig rig = Rig::make(8, "net-bad-frame");
  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  const Bytes forged = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};  // 4 GiB length
  raw.sock.send_all(forged);
  const Frame reply = raw.read_frame();
  ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kError);
  EXPECT_EQ(ErrorReply::deserialize(reply.payload).code, "decode");
  EXPECT_TRUE(raw.sock.recv_some().empty());
}

TEST(Loopback, ConnectionLimitRejectsWithBusy) {
  Rig rig = Rig::make(8, "net-conn-limit");
  ServerConfig config;
  config.max_connections = 1;
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  SlicerClientChannel first(server.port(), "alpha");
  first.ping();
  try {
    SlicerClientChannel second(server.port(), "alpha");
    FAIL() << "second connection must be rejected at max_connections=1";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), "busy");
  }
  // The surviving channel is unaffected.
  first.ping();
}

TEST(Loopback, IdleTimeoutThenClientReconnects) {
  Rig rig = Rig::make(8, "net-idle");
  ServerConfig config;
  config.idle_timeout = std::chrono::milliseconds(150);
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  ChannelConfig ch_config;
  ch_config.max_attempts = 3;
  ch_config.base_backoff_ms = 1;
  SlicerClientChannel ch(server.port(), "alpha", ch_config);
  ch.ping();
  // Let the server expire the connection, then issue an idempotent request:
  // the channel reconnects (fresh HELLO) and the request succeeds.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ch.ping();
  EXPECT_GE(ch.stats().reconnects, 1u);
  EXPECT_GE(ch.stats().retries, 1u);
}

TEST(Loopback, PipelinedRepliesKeepRequestOrder) {
  ThreadPool::ScopedPool pool(4);
  Rig rig = Rig::make(8, "net-pipeline");
  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  raw.hello("alpha");

  // A burst of pings followed by a malformed QUERY_PLAN payload: the replies
  // must arrive strictly in request order (pongs first, then the error)
  // even though the reader decodes the whole burst from a few recv chunks.
  constexpr int kPings = 8;
  for (int i = 0; i < kPings; ++i) raw.send(Op::kPing, BytesView{});
  raw.send(Op::kQueryPlan, str_bytes("not a query plan payload"));
  for (int i = 0; i < kPings; ++i) {
    EXPECT_EQ(static_cast<Op>(raw.read_frame().opcode), Op::kPong) << i;
  }
  const Frame last = raw.read_frame();
  ASSERT_EQ(static_cast<Op>(last.opcode), Op::kError);
  EXPECT_EQ(ErrorReply::deserialize(last.payload).code, "decode");
}

// A request runs on its connection's reader thread, which is the caller
// lane of the handler's parallel_for: with the pool's only worker pinned,
// PING and a many-token QUERY_PLAN are still answered.
TEST(Loopback, RequestsProgressWithEveryPoolWorkerBusy) {
  ThreadPool::ScopedPool pool(2);
  Rig rig = Rig::make(8, "net-pinned-pool", {}, 2);
  const auto records = sample_records();
  const core::UpdateOutput update = rig.owner->insert(records);
  rig.user->refresh(rig.owner->export_user_state());
  QueryPlanRequest plan;
  plan.clauses.push_back(
      {.aggregated = false,
       .tokens = rig.user->make_tokens(42, MatchCondition::kGreater)});
  plan.clauses.push_back(
      {.aggregated = false,
       .tokens = rig.user->make_tokens(42, MatchCondition::kLess)});

  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();
  SlicerClientChannel(server.port(), "alpha").apply(update);

  // Pin the worker: a parallel_for from a helper thread whose two bodies
  // (one on the helper, one on the worker) wait on a latch. The guard
  // releases the latch however the test exits, so a failure cannot hang.
  struct Pin {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    bool released = false;
    std::thread holder;
    ~Pin() {
      {
        std::lock_guard lock(mu);
        released = true;
      }
      cv.notify_all();
      if (holder.joinable()) holder.join();
    }
  } pin;
  pin.holder = std::thread([&pin] {
    ThreadPool::instance().parallel_for(2, [&pin](std::size_t) {
      std::unique_lock lock(pin.mu);
      ++pin.arrived;
      pin.cv.notify_all();
      pin.cv.wait(lock, [&pin] { return pin.released; });
    });
  });
  {
    std::unique_lock lock(pin.mu);
    ASSERT_TRUE(pin.cv.wait_for(lock, std::chrono::seconds(10),
                                [&pin] { return pin.arrived == 2; }));
  }

  RawClient raw(server.port());  // 5 s receive timeout bounds each reply
  raw.hello("alpha");
  raw.send(Op::kPing, BytesView{});
  EXPECT_EQ(static_cast<Op>(raw.read_frame().opcode), Op::kPong);
  raw.send(Op::kQueryPlan, plan.serialize());
  const Frame reply = raw.read_frame();
  ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kQueryPlanReply);
  const QueryPlanReply out = QueryPlanReply::deserialize(reply.payload);
  EXPECT_TRUE(core::verify_plan(rig.acc_params, rig.owner->shard_values(),
                                plan.clauses, out.clauses,
                                rig.config.prime_bits)
                  .verified);
}

// slicer.net.v1's SEARCH, SEARCH_AGGREGATED, FETCH and PROVE (0x03-0x06)
// are retired: a v1 HELLO is refused, and on a v2 connection each retired
// opcode is answered like any unknown opcode — kError "protocol", +10 on
// the tenant's misbehavior score, connection kept.
TEST(Loopback, RetiredOpcodesAreUnknown) {
  Rig rig = Rig::make(8, "net-retired");
  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  {
    RawClient v1(server.port());
    Writer w;
    w.str("slicer.net.v1");
    w.str("alpha");
    v1.send(Op::kHello, std::move(w).take());
    const Frame reply = v1.read_frame();
    ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kError);
    EXPECT_EQ(ErrorReply::deserialize(reply.payload).code, "hello");
    EXPECT_TRUE(v1.sock.recv_some().empty());
  }

  RawClient raw(server.port());
  raw.hello("alpha");
  std::uint64_t score = 0;
  for (const std::uint8_t retired : {0x03, 0x04, 0x05, 0x06}) {
    raw.send(static_cast<Op>(retired), str_bytes("v1 payload"));
    const Frame reply = raw.read_frame();
    ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kError) << int{retired};
    EXPECT_EQ(ErrorReply::deserialize(reply.payload).code, "protocol")
        << int{retired};
    score += 10;
    EXPECT_EQ(server.tenant_misbehavior("alpha"), score) << int{retired};
  }
  raw.send(Op::kPing, BytesView{});  // still served
  EXPECT_EQ(static_cast<Op>(raw.read_frame().opcode), Op::kPong);
}

TEST(Loopback, ConcurrentClientsAllVerify) {
  ThreadPool::ScopedPool pool(4);
  Rig rig = Rig::make(8, "net-concurrent", {}, 2);
  const auto records = sample_records();
  const core::UpdateOutput update = rig.owner->insert(records);
  rig.user->refresh(rig.owner->export_user_state());

  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  SlicerClientChannel seed(server.port(), "alpha");
  seed.apply(update);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 3;
  // Token generation mutates DataUser state — pre-generate on this thread;
  // the worker threads only exercise the channel and the pure verifier.
  std::vector<std::vector<core::SearchToken>> queries;
  for (int i = 0; i < kClients * kQueriesPerClient; ++i) {
    queries.push_back(rig.user->make_tokens(
        static_cast<std::uint64_t>(40 + 7 * i), MatchCondition::kGreater));
  }
  std::vector<std::thread> clients;
  std::atomic<int> verified{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SlicerClientChannel ch(server.port(), "alpha");
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const auto& tokens = queries[c * kQueriesPerClient + q];
        const auto replies = search(ch, tokens);
        if (core::verify_query(rig.acc_params, rig.owner->shard_values(),
                               tokens, replies, rig.config.prime_bits)) {
          verified.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(verified.load(), kClients * kQueriesPerClient);
}

TEST(Loopback, StopUnblocksLiveConnections) {
  Rig rig = Rig::make(8, "net-stop");
  auto server = std::make_unique<SlicerServer>();
  server->add_tenant("alpha", take_cloud(rig));
  server->start();
  const std::uint16_t port = server->port();
  SlicerClientChannel ch(port, "alpha");
  ch.ping();
  server->stop();  // must not hang with the channel still open
  ChannelConfig one_shot;
  one_shot.max_attempts = 1;
  EXPECT_THROW(SlicerClientChannel(port, "alpha", one_shot).ping(), Error);
  server.reset();
}

}  // namespace
}  // namespace slicer::net
