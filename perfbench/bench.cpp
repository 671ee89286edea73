// Repository benchmark: verified Slicer requests end to end against a
// loopback SlicerServer, with a traced per-layer budget (see README.md).
//
//   perfbench --workload <plan_spill|plan_hot|paid_mixed> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Every operation goes through public calls only — DataUser::make_tokens,
// SlicerClientChannel::query_plan / apply, core::verify_plan,
// DataOwner::insert, and Blockchain with the SlicerContract calldata
// builders — and passes a correctness gate outside its timed span. The run
// length is a fixed number of operations derived from --seconds, so the
// cache trajectory of a seed is identical on every run. The last line of
// stdout is one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A failed honest operation makes the exit code non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/params.hpp"
#include "chain/blockchain.hpp"
#include "chain/slicer_contract.hpp"
#include "common/metrics.hpp"
#include "common/serial.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/cloud.hpp"
#include "core/owner.hpp"
#include "core/query.hpp"
#include "core/user.hpp"
#include "core/verify.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "workload/workload.hpp"

namespace slicer::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using core::RecordId;

constexpr std::size_t kBits = 16;
constexpr std::uint64_t kDomain = 1ull << kBits;
constexpr std::size_t kShards = 8;
constexpr std::size_t kPrimeBits = 64;
constexpr int kSetupRepeats = 5;
const char* const kTenant = "perfbench";

// plan_spill / plan_hot: two correlated 16-bit attributes, fixed-width
// inclusive ranges, 2-4 leaves per plan.
constexpr std::size_t kPlanRecords = 500;
constexpr std::uint64_t kLeafWidth = kDomain / 16;
constexpr std::size_t kSpillWarmupOps = 150;
constexpr std::size_t kHotSpecs = 32;

// paid_mixed: the paper's single-attribute workload; one write of
// kInsertBatch records, then kQueriesPerRound paid order queries.
constexpr std::size_t kPaidRecords = 1000;
constexpr std::size_t kInsertBatch = 32;
constexpr std::size_t kQueriesPerRound = 4;
constexpr std::uint64_t kPayment = 25'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = true;
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || a.seconds <= 0)
    throw std::invalid_argument(
        "usage: perfbench --workload W --seed N --seconds S [--trace 0|1]");
  return a;
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Accumulator parameters with the owner's trapdoor, generated once per
/// process from a fixed label: the same deployment identity on every run.
const std::pair<adscrypto::AccumulatorParams, adscrypto::AccumulatorTrapdoor>&
accumulator_keys() {
  static const auto keys = [] {
    crypto::Drbg rng(str_bytes("perfbench-accumulator"));
    return adscrypto::RsaAccumulator::setup(rng, 1024);
  }();
  return keys;
}

// --- deployment ------------------------------------------------------------

/// Owner, loopback server with one tenant, one client connection, data
/// user and chain with the Slicer contract publishing the shard values.
struct Deployment {
  std::unique_ptr<core::DataOwner> owner;
  std::unique_ptr<core::DataUser> user;
  std::unique_ptr<net::SlicerServer> server;
  std::unique_ptr<net::SlicerClientChannel> channel;  // closes before server
  std::unique_ptr<chain::Blockchain> chain;
  chain::Address owner_addr = chain::Address::from_label("perfbench-owner");
  chain::Address user_addr = chain::Address::from_label("perfbench-user");
  chain::Address cloud_addr = chain::Address::from_label("perfbench-cloud");
  chain::Address contract;
  /// The shard values the owner published on chain: the verification
  /// anchor of every clause.
  std::vector<bigint::BigUint> shard_values;

  const adscrypto::AccumulatorParams& params() const {
    return accumulator_keys().first;
  }

  const chain::SlicerContract& contract_view() {
    return *dynamic_cast<const chain::SlicerContract*>(
        chain->contract_at(contract));
  }

  /// Submits one transaction, seals it and returns its bound receipt.
  chain::Receipt transact(const chain::Address& from, std::uint64_t value,
                          Bytes calldata) {
    Bytes hash;
    {
      const trace::Span span("bench.chain.submit");
      hash = chain->submit(
          chain->make_tx(from, contract, value, std::move(calldata)));
    }
    {
      const trace::Span span("bench.chain.seal");
      chain->seal_block();
    }
    std::optional<chain::Receipt> receipt = chain->receipt_of(hash);
    if (!receipt.has_value())
      throw std::runtime_error("transaction not sealed");
    return std::move(*receipt);
  }

  /// Publishes the owner's shard values (UPDATE_SHARDS). Returns the
  /// transaction's gas.
  std::uint64_t publish_shards() {
    const chain::Receipt r = transact(
        owner_addr, 0, chain::encode_update_shards(owner->shard_values()));
    if (!r.success)
      throw std::runtime_error("UPDATE_SHARDS reverted: " + r.revert_reason);
    return r.gas_used;
  }
};

template <class R>
std::unique_ptr<Deployment> deploy(const std::vector<R>& db) {
  const auto& [params, trapdoor] = accumulator_keys();
  auto d = std::make_unique<Deployment>();
  core::Config config;
  config.value_bits = kBits;
  config.prime_bits = kPrimeBits;
  crypto::Drbg rng(str_bytes("perfbench-deployment"));
  d->owner = std::make_unique<core::DataOwner>(
      config, core::Keys::generate(rng),
      adscrypto::default_trapdoor_public_key(),
      adscrypto::default_trapdoor_secret_key(), params, trapdoor,
      crypto::Drbg(rng.generate(32)), kShards);
  const core::UpdateOutput built = d->owner->build(db);

  d->server = std::make_unique<net::SlicerServer>();
  d->server->add_tenant(kTenant, std::make_unique<core::CloudServer>(
                                     adscrypto::default_trapdoor_public_key(),
                                     params, kPrimeBits, kShards));
  d->server->start();
  d->channel =
      std::make_unique<net::SlicerClientChannel>(d->server->port(), kTenant);
  if (d->channel->hello().shard_count != kShards)
    throw std::runtime_error("HELLO: unexpected shard count");
  if (d->channel->apply(built) != d->owner->primes().size())
    throw std::runtime_error("APPLY: prime count mismatch");
  d->user = std::make_unique<core::DataUser>(d->owner->export_user_state(),
                                             crypto::Drbg(rng.generate(32)));

  d->chain = std::make_unique<chain::Blockchain>(
      std::vector<chain::Address>{
          chain::Address::from_label("perfbench-seal")});
  for (const chain::Address& a : {d->owner_addr, d->user_addr, d->cloud_addr})
    d->chain->credit(a, 1'000'000'000'000ull);
  d->contract = d->chain->submit_deployment(
      d->owner_addr, std::make_unique<chain::SlicerContract>(),
      chain::SlicerContract::encode_ctor(params, d->owner->accumulator_value(),
                                         kPrimeBits));
  d->chain->seal_block();
  d->publish_shards();
  d->shard_values = d->contract_view().stored_shard_values();
  if (d->shard_values != d->owner->shard_values())
    throw std::runtime_error("published shard values differ from the owner's");
  return d;
}

/// Sets up the deployment kSetupRepeats times, each from a cold
/// hash-to-prime memo, and keeps the last one. Returns the median setup
/// time in seconds.
template <class R>
double setup(const std::vector<R>& db, std::unique_ptr<Deployment>& out) {
  const auto keys_start = Clock::now();
  accumulator_keys();  // one-time trusted setup, identical on every run
  std::printf("phase: accumulator keys %.3f s\n", ms_since(keys_start) / 1000);
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    out.reset();
    adscrypto::prime_cache_clear();
    const auto start = Clock::now();
    out = deploy(db);
    seconds.push_back(ms_since(start) / 1000.0);
    std::printf("phase: setup %d of %d %.3f s\n", i + 1, kSetupRepeats,
                seconds.back());
  }
  return quantile(seconds, 0.5);
}

// --- run bookkeeping -------------------------------------------------------

struct RunStats {
  std::vector<double> read_ms;    // plan query, or paid query to settlement
  std::vector<double> insert_ms;  // write batch to digest on chain
  double op_ms_total = 0;         // sum of timed op spans
  std::size_t ops = 0;
  std::size_t attempted = 0;  // includes warm-up operations
  std::size_t failed = 0;
  std::uint64_t tokens = 0;
  std::uint64_t reply_bytes = 0;
  std::uint64_t result_ids = 0;
  std::uint64_t gas_settle = 0;
  std::uint64_t gas_insert = 0;
};

/// Per-layer span totals of the traced run: the benchmark's own spans
/// around each public call, drained from the trace ring after every op.
struct SpanTotals {
  std::map<std::string, std::uint64_t> ns;  // bench.* spans by name
  std::uint64_t dropped = 0;

  void drain() {
    std::uint64_t lost = 0;
    for (const trace::SpanRecord& s : trace::drain(&lost))
      if (s.name.rfind("bench.", 0) == 0) ns[s.name] += s.duration_ns;
    dropped += lost;
  }
  double ms(const std::string& name) const {
    const auto it = ns.find(name);
    return it == ns.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
  }
  double total_ms() const {
    double sum = 0;
    for (const auto& [name, v] : ns) sum += static_cast<double>(v) / 1e6;
    return sum;
  }
};

/// Records one operation's outcome; a failed gate is reported at once.
void gate(RunStats& st, bool ok, const std::string& what) {
  ++st.attempted;
  if (!ok) {
    ++st.failed;
    std::printf("FAILED OP %zu: %s\n", st.attempted, what.c_str());
  }
}

std::vector<RecordId> sorted_unique(std::vector<RecordId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

// --- plan queries over the wire ---------------------------------------------

/// Verified set combination up a plan tree (children precede parents).
std::vector<RecordId> combine(const core::ClausePlan& plan,
                              const std::vector<std::vector<RecordId>>& ids) {
  std::vector<std::vector<RecordId>> node_ids(plan.nodes.size());
  for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
    const core::PlanNode& node = plan.nodes[n];
    switch (node.kind) {
      case core::PlanNode::Kind::kClause:
        node_ids[n] = ids[node.clause];
        break;
      case core::PlanNode::Kind::kEmpty:
        break;
      case core::PlanNode::Kind::kAnd:
      case core::PlanNode::Kind::kOr: {
        std::vector<RecordId> acc = node_ids[node.children.front()];
        for (std::size_t c = 1; c < node.children.size(); ++c) {
          const std::vector<RecordId>& next = node_ids[node.children[c]];
          std::vector<RecordId> merged;
          if (node.kind == core::PlanNode::Kind::kAnd)
            std::set_intersection(acc.begin(), acc.end(), next.begin(),
                                  next.end(), std::back_inserter(merged));
          else
            std::set_union(acc.begin(), acc.end(), next.begin(), next.end(),
                           std::back_inserter(merged));
          acc = std::move(merged);
        }
        node_ids[n] = std::move(acc);
        break;
      }
    }
  }
  return plan.nodes.empty() ? std::vector<RecordId>{}
                            : std::move(node_ids[plan.root]);
}

/// One verified plan query: tokens → QUERY_PLAN → verify_plan → decrypt →
/// set combination. Gated against the plaintext oracle `expected`. Returns
/// the encoded reply size.
std::size_t plan_query(Deployment& d, const core::QuerySpec& spec,
                const std::vector<RecordId>& expected, RunStats& st,
                bool timed) {
  const auto start = Clock::now();
  const core::QueryOptions options = core::QueryOptions::defaults();
  core::ClausePlan plan;
  {
    const trace::Span span("bench.client.compile");
    plan = core::compile_spec(
        spec, core::PlanContext{{}, options.aggregated_vo,
                                options.strict_intervals});
  }
  net::QueryPlanRequest request;
  {
    const trace::Span span("bench.user.tokens");
    for (const core::PlanClause& c : plan.clauses)
      request.clauses.push_back(core::ClauseRequest{
          c.aggregated, d.user->make_tokens(c.attribute, c.value, c.mc)});
  }
  net::QueryPlanReply reply;
  {
    const trace::Span span("bench.net.query_plan");
    reply = d.channel->query_plan(request);
  }
  core::PlanVerification pv;
  {
    const trace::Span span("bench.verify");
    pv = core::verify_plan(d.params(), d.shard_values, request.clauses,
                           reply.clauses, kPrimeBits);
  }
  std::vector<std::vector<RecordId>> clause_ids(reply.clauses.size());
  {
    const trace::Span span("bench.user.decrypt");
    for (std::size_t i = 0; i < reply.clauses.size(); ++i) {
      const core::ClauseReply& c = reply.clauses[i];
      if (c.aggregated) {
        std::vector<Bytes> flat;
        for (const auto& results : c.query_reply.token_results)
          flat.insert(flat.end(), results.begin(), results.end());
        clause_ids[i] = sorted_unique(d.user->decrypt_results(flat));
      } else {
        clause_ids[i] = sorted_unique(d.user->decrypt(c.replies));
      }
    }
  }
  std::vector<RecordId> ids;
  {
    const trace::Span span("bench.client.combine");
    if (clause_ids.size() == plan.clauses.size())
      ids = combine(plan, clause_ids);
  }
  const double ms = ms_since(start);

  gate(st, pv.verified && ids == expected,
       "plan " + spec.to_string() +
           (pv.verified ? " wrong ids" : " unverified"));
  const std::size_t reply_bytes = reply.serialize().size();
  if (!timed) return reply_bytes;
  ++st.ops;
  st.op_ms_total += ms;
  st.read_ms.push_back(ms);
  for (const core::ClauseRequest& c : request.clauses)
    st.tokens += c.tokens.size();
  st.reply_bytes += reply_bytes;
  st.result_ids += ids.size();
  return reply_bytes;
}

/// A 2-4 leaf AND/OR plan of fixed-width inclusive ranges over the two
/// attributes, lower bounds uniform.
core::QuerySpec random_spec(crypto::Drbg& rng) {
  const std::size_t leaves = 2 + rng.uniform(3);
  std::size_t attr = rng.uniform(2);
  std::optional<core::Pred> spec;
  for (std::size_t i = 0; i < leaves; ++i, attr ^= 1) {
    const std::uint64_t lo = rng.uniform(kDomain - kLeafWidth);
    core::Pred leaf = core::Pred::attr(attr == 0 ? "amount" : "risk")
                          .between_inclusive(lo, lo + kLeafWidth);
    if (!spec)
      spec = std::move(leaf);
    else if (rng.uniform(2) == 0)
      spec = std::move(*spec) && std::move(leaf);
    else
      spec = std::move(*spec) || std::move(leaf);
  }
  return std::move(*spec);
}

std::vector<RecordId> oracle(const std::vector<core::MultiRecord>& db,
                             const core::QuerySpec& spec) {
  std::vector<RecordId> out;
  for (const core::MultiRecord& r : db)
    if (core::eval_spec(spec, r)) out.push_back(r.id);
  return sorted_unique(std::move(out));
}

std::vector<core::MultiRecord> plan_records(crypto::Drbg& rng) {
  const std::vector<workload::AttributeSpec> attrs = {
      {"amount", kBits, workload::Distribution::kZipf, 0.0},
      {"risk", kBits, workload::Distribution::kUniform, 0.6},
  };
  return workload::generate_multi(rng, attrs, kPlanRecords);
}

// --- paid queries and writes ------------------------------------------------

/// One write: DataOwner::insert → APPLY → UPDATE_SHARDS → seal → user
/// state refresh. Gated on the server's prime count and the on-chain anchor.
void paid_insert(Deployment& d, std::vector<core::Record>& db,
                 crypto::Drbg& rng, RunStats& st, bool timed) {
  std::vector<core::Record> batch;
  for (std::size_t i = 0; i < kInsertBatch; ++i)
    batch.push_back(core::Record{db.size() + 1 + i, rng.uniform(kDomain)});

  const auto start = Clock::now();
  core::UpdateOutput update;
  {
    const trace::Span span("bench.owner.insert");
    update = d.owner->insert(batch);
  }
  std::uint64_t prime_count = 0;
  {
    const trace::Span span("bench.net.apply");
    prime_count = d.channel->apply(update);
  }
  const std::uint64_t gas = d.publish_shards();
  {
    const trace::Span span("bench.user.refresh");
    d.user->refresh(d.owner->export_user_state());
  }
  const double ms = ms_since(start);

  db.insert(db.end(), batch.begin(), batch.end());
  d.shard_values = d.contract_view().stored_shard_values();
  gate(st,
       prime_count == d.owner->primes().size() &&
           d.shard_values == d.owner->shard_values(),
       "insert batch not applied or not published");
  if (!timed) return;
  ++st.ops;
  st.op_ms_total += ms;
  st.insert_ms.push_back(ms);
  st.gas_insert += gas;
}

/// The q-th paid order query: SUBMIT_QUERY with escrow → seal →
/// single-clause legacy QUERY_PLAN → attach_counters → SUBMIT_RESULT →
/// seal. Gated on the verdict, the exact escrow movement, verify_plan and
/// the oracle.
void paid_query(Deployment& d, const std::vector<core::Record>& db,
                std::size_t q, double offset, RunStats& st, bool timed) {
  // Values follow a golden-ratio sequence from the seeded offset and the
  // direction alternates: every seed spreads its queries evenly over the
  // domain, so the mix of token counts, which sets the settlement cost,
  // hardly depends on the seed. Values stay away from the domain edges so
  // both directions always match.
  const double u =
      std::fmod(offset + 0.6180339887498949 * static_cast<double>(q), 1.0);
  const std::uint64_t v = 1024 + static_cast<std::uint64_t>(
                                     u * static_cast<double>(kDomain - 2048));
  const bool greater = q % 2 == 0;
  const core::MatchCondition mc =
      greater ? core::MatchCondition::kGreater : core::MatchCondition::kLess;
  const std::uint64_t user_before = d.chain->balance(d.user_addr);
  const std::uint64_t cloud_before = d.chain->balance(d.cloud_addr);

  const auto start = Clock::now();
  net::QueryPlanRequest request;
  {
    const trace::Span span("bench.user.tokens");
    request.clauses.push_back(
        core::ClauseRequest{false, d.user->make_tokens(v, mc)});
  }
  const std::vector<core::SearchToken>& tokens = request.clauses[0].tokens;
  const chain::Receipt submitted =
      d.transact(d.user_addr, kPayment, chain::encode_submit_query(tokens));
  std::uint64_t query_id = 0;
  if (submitted.success) {
    Reader out(submitted.output);
    query_id = out.u64();
  }
  net::QueryPlanReply reply;
  {
    const trace::Span span("bench.net.query_plan");
    reply = d.channel->query_plan(request);
  }
  const bool shaped = reply.clauses.size() == 1 && !reply.clauses[0].aggregated;
  std::vector<chain::ProvenReply> proven;
  {
    const trace::Span span("bench.chain.attach_counters");
    if (shaped)
      proven = chain::attach_counters(tokens, reply.clauses[0].replies,
                                      kPrimeBits);
  }
  const chain::Receipt settled = d.transact(
      d.cloud_addr, 0, chain::encode_submit_result(query_id, tokens, proven));
  std::uint8_t verdict = 0;
  if (settled.success) {
    Reader out(settled.output);
    verdict = out.u8();
  }
  const double ms = ms_since(start);

  const core::PlanVerification pv = core::verify_plan(
      d.params(), d.shard_values, request.clauses, reply.clauses, kPrimeBits);
  std::vector<RecordId> ids;
  if (shaped) ids = sorted_unique(d.user->decrypt(reply.clauses[0].replies));
  std::vector<RecordId> expected;
  const core::QuerySpec spec =
      greater ? core::Pred::value().gt(v) : core::Pred::value().lt(v);
  for (const core::Record& r : db)
    if (core::eval_spec(spec, r)) expected.push_back(r.id);
  // Gas is burned from each sender's balance, so the escrow moved exactly
  // when both balances differ by the payment plus their own gas.
  const bool paid_exactly =
      d.chain->balance(d.user_addr) ==
          user_before - kPayment - submitted.gas_used &&
      d.chain->balance(d.cloud_addr) ==
          cloud_before + kPayment - settled.gas_used;
  gate(st,
       submitted.success && settled.success && verdict == 1 && paid_exactly &&
           pv.verified && ids == sorted_unique(std::move(expected)),
       "paid query " + spec.to_string() + ": submit " +
           (submitted.success ? "ok" : submitted.revert_reason) + ", settle " +
           (settled.success ? "ok" : settled.revert_reason) + ", verdict " +
           std::to_string(verdict) + ", escrow moved exactly " +
           std::to_string(paid_exactly) + ", verify_plan " +
           std::to_string(pv.verified));
  if (!timed) return;
  ++st.ops;
  st.op_ms_total += ms;
  st.read_ms.push_back(ms);
  st.tokens += tokens.size();
  st.reply_bytes += reply.serialize().size();
  st.result_ids += ids.size();
  st.gas_settle += submitted.gas_used + settled.gas_used;
}

// --- workloads --------------------------------------------------------------

/// Nominal operations per second on the reference 2-vCPU host: the fixed
/// op count of a run is seconds × this, so a seed always replays the same
/// operations whatever the host speed.
double nominal_ops_per_second(const std::string& workload) {
  if (workload == "plan_spill") return 22;
  if (workload == "plan_hot") return 50;
  return 5.5;  // paid_mixed
}

/// Everything a workload hands back to main().
struct WorkloadRun {
  double setup_s = 0;
  Clock::time_point warmup_start;
  RunStats st;
  /// Metrics at the timed window's start, middle and end.
  metrics::Snapshot before, middle, after;
  SpanTotals spans;
};

/// Runs `op(i)` for `ops` timed operations; in a traced run, with metrics
/// and tracing on and the trace ring drained after every op.
template <class Op>
void timed_window(WorkloadRun& run, std::size_t ops, bool trace_on, Op op) {
  std::printf("phase: warm-up %.3f s\n", ms_since(run.warmup_start) / 1000);
  const auto start = Clock::now();
  if (trace_on) {
    metrics::set_enabled(true);
    trace::set_enabled(true);
    trace::drain();
  }
  run.before = metrics::snapshot();
  for (std::size_t i = 0; i < ops; ++i) {
    if (i == ops / 2) run.middle = metrics::snapshot();
    op(i);
    if (trace_on) run.spans.drain();
  }
  run.after = metrics::snapshot();
  trace::set_enabled(false);
  metrics::set_enabled(false);
  std::printf("phase: timed window %.3f s\n", ms_since(start) / 1000);
}

WorkloadRun run_plan(std::uint64_t seed, std::size_t ops, bool trace_on,
                     bool hot) {
  WorkloadRun run;
  crypto::Drbg rng(str_bytes("perfbench-plan-" + std::to_string(seed)));
  const std::vector<core::MultiRecord> db = plan_records(rng);
  std::unique_ptr<Deployment> d;
  run.setup_s = setup(db, d);
  run.warmup_start = Clock::now();

  if (hot) {
    // A small fixed spec set drawn Zipf(s=1)-wise; each spec runs once
    // before timing, so the proof cache already holds its tokens. Zipf
    // ranks go out from the spec with the median reply size, so the
    // workload's cost does not hinge on which spec a seed makes popular.
    std::vector<core::QuerySpec> specs;
    std::vector<std::vector<RecordId>> expected;
    std::vector<std::pair<std::size_t, std::size_t>> by_size;  // bytes, spec
    for (std::size_t i = 0; i < kHotSpecs; ++i) {
      specs.push_back(random_spec(rng));
      expected.push_back(oracle(db, specs.back()));
      by_size.emplace_back(
          plan_query(*d, specs[i], expected[i], run.st, false), i);
    }
    std::sort(by_size.begin(), by_size.end());
    std::vector<std::size_t> rank_to_spec;
    std::vector<double> cdf;
    double total = 0;
    for (std::size_t r = 0; r < kHotSpecs; ++r) {
      const std::size_t mid = kHotSpecs / 2;
      const std::size_t pos = r % 2 == 1 ? mid - (r + 1) / 2 : mid + r / 2;
      rank_to_spec.push_back(by_size[pos].second);
      total += 1.0 / static_cast<double>(r + 1);
      cdf.push_back(total);
    }
    timed_window(run, ops, trace_on, [&](std::size_t) {
      const double u = static_cast<double>(rng.uniform(1u << 30)) /
                       static_cast<double>(1u << 30) * total;
      const std::size_t rank = std::min<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
          kHotSpecs - 1);
      const std::size_t pick = rank_to_spec[rank];
      plan_query(*d, specs[pick], expected[pick], run.st, true);
    });
  } else {
    // Fresh specs every op; a fixed warm-up brings the proof cache's hit
    // ratio to its stationary level before timing starts.
    for (std::size_t i = 0; i < kSpillWarmupOps; ++i) {
      const core::QuerySpec spec = random_spec(rng);
      plan_query(*d, spec, oracle(db, spec), run.st, false);
    }
    timed_window(run, ops, trace_on, [&](std::size_t) {
      const core::QuerySpec spec = random_spec(rng);
      const std::vector<RecordId> expected = oracle(db, spec);
      plan_query(*d, spec, expected, run.st, true);
    });
  }
  gate(run.st, d->chain->audit(), "chain audit");
  return run;
}

WorkloadRun run_paid(std::uint64_t seed, std::size_t ops, bool trace_on) {
  WorkloadRun run;
  crypto::Drbg rng(str_bytes("perfbench-paid-" + std::to_string(seed)));
  std::vector<core::Record> db = workload::generate(
      rng, workload::Distribution::kUniform, kBits, kPaidRecords);
  std::unique_ptr<Deployment> d;
  run.setup_s = setup(db, d);
  run.warmup_start = Clock::now();

  constexpr std::size_t kRound = 1 + kQueriesPerRound;
  const double offset = static_cast<double>(rng.uniform(1u << 30)) /
                        static_cast<double>(1u << 30);
  std::size_t queries = 0;
  // One warm-up round pays the first-write and first-settle costs.
  paid_insert(*d, db, rng, run.st, false);
  for (std::size_t q = 0; q < kQueriesPerRound; ++q)
    paid_query(*d, db, queries++, offset, run.st, false);
  timed_window(run, ops, trace_on, [&](std::size_t i) {
    if (i % kRound == 0)
      paid_insert(*d, db, rng, run.st, true);
    else
      paid_query(*d, db, queries++, offset, run.st, true);
  });
  gate(run.st, d->chain->audit(), "chain audit");
  gate(run.st, d->contract_view().open_query_count() == 0,
       "escrow left open");
  return run;
}

// --- reporting --------------------------------------------------------------

std::uint64_t counter_delta(const metrics::Snapshot& a,
                            const metrics::Snapshot& b,
                            const std::string& name) {
  const auto ib = b.counters.find(name);
  if (ib == b.counters.end()) return 0;
  const auto ia = a.counters.find(name);
  return ib->second - (ia == a.counters.end() ? 0 : ia->second);
}

metrics::Snapshot::HistogramData hist_delta(const metrics::Snapshot& a,
                                            const metrics::Snapshot& b,
                                            const std::string& name) {
  metrics::Snapshot::HistogramData out;
  const auto ib = b.histograms.find(name);
  if (ib == b.histograms.end()) return out;
  out.count = ib->second.count;
  out.sum = ib->second.sum;
  const auto ia = a.histograms.find(name);
  if (ia != a.histograms.end()) {
    out.count -= ia->second.count;
    out.sum -= ia->second.sum;
  }
  return out;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double proof_cache_hit_ratio(const metrics::Snapshot& a,
                             const metrics::Snapshot& b) {
  const double hits = counter_delta(a, b, "core.cloud.proof_cache.hits");
  return ratio(hits,
               hits + counter_delta(a, b, "core.cloud.proof_cache.prime_hits") +
                   counter_delta(a, b, "core.cloud.proof_cache.misses"));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::map<std::string, double> deterministic_counts(const WorkloadRun& run,
                                                   bool trace_on) {
  const RunStats& st = run.st;
  std::map<std::string, double> c = {
      {"ops", static_cast<double>(st.ops)},
      {"reads", static_cast<double>(st.read_ms.size())},
      {"inserts", static_cast<double>(st.insert_ms.size())},
      {"tokens", static_cast<double>(st.tokens)},
      {"reply_bytes", static_cast<double>(st.reply_bytes)},
      {"result_ids", static_cast<double>(st.result_ids)},
      {"gas_settle", static_cast<double>(st.gas_settle)},
      {"gas_insert", static_cast<double>(st.gas_insert)},
  };
  if (trace_on) {
    const auto& a = run.before;
    const auto& b = run.after;
    c["witnesses"] = static_cast<double>(
        hist_delta(a, b, "adscrypto.accumulator.witness_ns").count);
    for (const char* k : {"hits", "prime_hits", "misses"})
      c[std::string("proof_cache_") + k] = static_cast<double>(
          counter_delta(a, b, std::string("core.cloud.proof_cache.") + k));
  }
  return c;
}

std::vector<Metric> end_to_end(const WorkloadRun& run) {
  const RunStats& st = run.st;
  return {
      {"setup_s", run.setup_s, "s"},
      {"query_p50_ms", quantile(st.read_ms, 0.5), "ms"},
      {"query_p90_ms", quantile(st.read_ms, 0.9), "ms"},
      {"ops_per_s", ratio(st.ops, st.op_ms_total / 1000.0), "1/s"},
      {"reply_bytes_per_query",
       ratio(st.reply_bytes, st.read_ms.size()), "B"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

std::vector<Metric> per_layer(const WorkloadRun& run) {
  const RunStats& st = run.st;
  const auto& a = run.before;
  const auto& b = run.after;
  const double ops = static_cast<double>(st.ops);
  const double inserts = static_cast<double>(st.insert_ms.size());
  const double reads = static_cast<double>(st.read_ms.size());
  const auto hist_ms = [&](const char* name) {
    return static_cast<double>(hist_delta(a, b, name).sum) / 1e6;
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(counter_delta(a, b, name));
  };
  const SpanTotals& sp = run.spans;
  const double rtt = sp.ms("bench.net.query_plan") + sp.ms("bench.net.apply");
  const double handle = hist_ms("net.server.handle_ns");
  const double h2p_hits = count("adscrypto.h2p.cache_hits");
  return {
      {"user.tokens_ms", ratio(sp.ms("bench.user.tokens"), ops), "ms"},
      {"user.tokens_per_op", ratio(st.tokens, ops), "count"},
      {"user.decrypt_ms", ratio(sp.ms("bench.user.decrypt"), ops), "ms"},
      {"net.rtt_ms", ratio(rtt, ops), "ms"},
      {"net.server_handle_ms", ratio(handle, ops), "ms"},
      {"net.overhead_ms", ratio(rtt - handle, ops), "ms"},
      {"cloud.search_plan_ms", ratio(hist_ms("core.cloud.search_plan_ns"), ops),
       "ms"},
      {"cloud.fetch_ms", ratio(hist_ms("core.cloud.fetch_results_ns"), ops),
       "ms"},
      {"cloud.perm_steps_per_op",
       ratio(count("core.cloud.search.perm_steps"), ops), "count"},
      {"cloud.prove_ms", ratio(hist_ms("core.cloud.prove_ns"), ops), "ms"},
      {"cloud.proof_cache_hit_ratio", proof_cache_hit_ratio(a, b), "ratio"},
      {"cloud.apply_ms", ratio(hist_ms("core.cloud.apply_ns"), inserts), "ms"},
      {"acc.witness_ms",
       ratio(hist_ms("adscrypto.accumulator.witness_ns"), ops), "ms"},
      {"acc.witnesses_per_op",
       ratio(hist_delta(a, b, "adscrypto.accumulator.witness_ns").count, ops),
       "count"},
      {"acc.refresh_ms",
       ratio(hist_ms("adscrypto.sharded.refresh_ns"), inserts), "ms"},
      {"h2p.ms", ratio(hist_ms("adscrypto.h2p.search_ns"), ops), "ms"},
      {"h2p.memo_hit_ratio",
       ratio(h2p_hits, h2p_hits + count("adscrypto.h2p.cache_misses")),
       "ratio"},
      {"verify.ms", ratio(sp.ms("bench.verify"), ops), "ms"},
      {"verify.modexps_per_op",
       ratio(count("adscrypto.accumulator.verifies") +
                 count("adscrypto.sharded.aggregate_verifies"),
             ops),
       "count"},
      {"owner.insert_ms", ratio(sp.ms("bench.owner.insert"), inserts), "ms"},
      {"owner.primes_per_insert",
       ratio(count("core.owner.primes_derived"), inserts), "count"},
      {"chain.seal_ms", ratio(sp.ms("bench.chain.seal"), ops), "ms"},
      {"chain.attach_counters_ms",
       ratio(sp.ms("bench.chain.attach_counters"), ops), "ms"},
      {"chain.contract_gas_per_settle", ratio(st.gas_settle, reads), "gas"},
      {"chain.gas_per_insert", ratio(st.gas_insert, inserts), "gas"},
      {"budget.op_ms", ratio(st.op_ms_total, ops), "ms"},
      {"budget.unattributed_frac",
       1.0 - ratio(sp.total_ms(), st.op_ms_total), "ratio"},
      {"budget.dropped_spans", static_cast<double>(sp.dropped), "count"},
  };
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m)
    out += (out.size() > 1 ? ", \"" : "\"") + k + "\": " + json_number(v);
  return out + "}";
}

int run_main(const Args& args) {
  const bool paid = args.workload == "paid_mixed";
  if (!paid && args.workload != "plan_spill" && args.workload != "plan_hot")
    throw std::invalid_argument("unknown workload " + args.workload);
  const std::size_t ops = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             args.seconds * nominal_ops_per_second(args.workload))));
  const core::QueryOptions options = core::QueryOptions::defaults();
  std::printf(
      "config: {\"workload\": \"%s\", \"seed\": %llu, \"ops\": %zu, "
      "\"trace\": %d, \"pool_lanes\": %zu, \"shards\": %zu, "
      "\"value_bits\": %zu, \"aggregated_vo\": %d, \"connections\": 1, "
      "\"in_flight\": 1}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), ops,
      args.trace ? 1 : 0, ThreadPool::instance().thread_count(), kShards,
      kBits, options.aggregated_vo ? 1 : 0);
  std::fflush(stdout);

  const WorkloadRun run =
      paid ? run_paid(args.seed, ops, args.trace)
           : run_plan(args.seed, ops, args.trace,
                      args.workload == "plan_hot");

  std::printf("counts: %s\n",
              json_object(deterministic_counts(run, args.trace)).c_str());
  if (args.trace)
    std::printf("stationarity: proof_cache_hit_ratio first_half %.4f "
                "second_half %.4f\n",
                proof_cache_hit_ratio(run.before, run.middle),
                proof_cache_hit_ratio(run.middle, run.after));

  std::string metrics_json = "{";
  for (const Metric& m : args.trace ? per_layer(run) : end_to_end(run)) {
    if (metrics_json.size() > 1) metrics_json += ", ";
    metrics_json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
                    ", \"unit\": \"" + m.unit + "\"}";
  }
  metrics_json += "}";
  const bool correct = run.st.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", run.st.attempted, run.st.failed,
              metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace slicer::perfbench

int main(int argc, char** argv) {
  try {
    return slicer::perfbench::run_main(
        slicer::perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
