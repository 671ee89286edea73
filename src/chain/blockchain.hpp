// The simulated blockchain: accounts, a capped fee-priority mempool, PoA
// block sealing over a *block tree* (competing validator branches, longest-
// chain fork choice, reorgs with full state re-execution), gas accounting
// and a contract registry.
//
// Scope note (DESIGN.md §1): this substitutes for the paper's Rinkeby
// testnet. It is a deterministic in-process chain with real hash-chaining
// and seal verification; gas charged per transaction follows the schedule
// in chain/gas.hpp so Table II can be regenerated.
//
// Hostile-chain model (DESIGN.md §3j): blocks form a tree, not a vector.
// Every node carries the full post-execution state (balances, consumed
// nonces, deep-cloned contracts), so sealing on a non-tip parent *is* the
// re-execution a real node performs when importing a competing branch.
// Fork choice picks the highest tip, breaking ties by cumulative clique
// difficulty (in-turn seals weigh 2, out-of-turn 1) and then by lowest
// seal hash; when the winner changes, the canonical block/receipt caches
// are rebuilt and the orphaned transactions simply stop having receipts —
// resubmitting them is TxSubmitter's job, and trusting only sufficiently
// buried state is the finality reader's (chain/finality.hpp).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chain/block.hpp"
#include "chain/gas.hpp"
#include "chain/tx.hpp"
#include "common/errors.hpp"

namespace slicer::chain {

class Blockchain;

/// Thrown by contracts to revert the transaction (value returned to sender,
/// gas still consumed).
class ContractRevert : public std::runtime_error {
 public:
  explicit ContractRevert(const std::string& reason)
      : std::runtime_error(reason) {}
};

/// Thrown by seal_block when the rotation's validator is down (injected via
/// the `chain.seal.validator_down` fault site). The mempool is left intact;
/// a later seal attempt picks the pending transactions up again.
class ValidatorUnavailable : public Error {
 public:
  ValidatorUnavailable() : Error("validator unavailable: block not sealed") {}
};

/// Interface of an on-chain program.
class Contract {
 public:
  virtual ~Contract() = default;

  struct CallContext {
    Address sender;
    Address self;              // the contract's own address
    std::uint64_t value = 0;   // wei attached to the call
    std::uint64_t block_number = 0;  // height of the block being sealed
    GasMeter* gas = nullptr;   // meter to charge execution costs on
    Blockchain* chain = nullptr;  // for balance transfers (payments/refunds)
    std::vector<std::string>* logs = nullptr;  // event log sink
  };

  /// Handles a call; returns ABI-encoded output, throws ContractRevert to
  /// abort.
  virtual Bytes call(const CallContext& ctx, BytesView calldata) = 0;

  /// Executes the constructor (storage initialization gas is charged here).
  virtual void construct(const CallContext& ctx, BytesView ctor_data) = 0;

  /// Size of the "compiled" code — determines the deployment gas.
  virtual std::size_t code_size() const = 0;

  /// Deep copy of the contract's storage. Fork branches execute against
  /// independent per-block state snapshots; a reorg adopts the winning
  /// branch's copy wholesale instead of unwinding individual writes.
  virtual std::unique_ptr<Contract> clone() const = 0;
};

/// Tunables for the hostile-chain machinery.
struct BlockchainConfig {
  /// Maximum pending transactions. When full, the cheapest entry (by fee)
  /// is evicted to admit a better-paying one; an incoming transaction that
  /// does not outbid the pool minimum is itself the eviction victim.
  /// Must be at least 1.
  std::size_t mempool_cap = 4096;
  /// Blocks buried deeper than this below the canonical tip are finalized:
  /// their state snapshots are pruned and no branch may fork from them.
  /// Bounds both memory and the worst-case reorg depth a client must
  /// tolerate (SLICER_FINALITY_DEPTH should be well under it).
  std::size_t max_fork_depth = 64;
};

/// Always-on counters for the fork/mempool machinery (unlike the metrics
/// registry these do not require SLICER_METRICS; the robustness soak reads
/// them directly).
struct ChainStats {
  std::uint64_t reorgs = 0;            ///< canonical-chain switches
  std::uint64_t max_reorg_depth = 0;   ///< deepest rollback seen (blocks)
  std::uint64_t orphaned_txs = 0;      ///< txs whose block left the chain
  std::uint64_t mempool_evicted = 0;   ///< fee-priority eviction victims
  std::uint64_t flood_injected = 0;    ///< chain.mempool.flood filler txs
  std::uint64_t reexecuted_txs = 0;    ///< txs executed on fork branches
  std::uint64_t reexec_gas = 0;        ///< gas consumed by re-execution
};

/// Proof-of-authority blockchain simulation.
class Blockchain {
 public:
  /// `validators` take turns sealing blocks (round robin). At least one is
  /// required.
  explicit Blockchain(std::vector<Address> validators,
                      GasSchedule schedule = {}, BlockchainConfig config = {});

  // --- accounts ---
  /// Genesis faucet: mints balance (visible on every branch).
  void credit(const Address& account, std::uint64_t amount);
  std::uint64_t balance(const Address& account) const;
  std::uint64_t nonce(const Address& account) const;

  // --- transactions ---
  /// Fills in the sender's next nonce. `gas_limit` 0 = unlimited (the
  /// simulation default); a non-zero limit makes execution fail with
  /// "out of gas" once the meter crosses it. `fee` is the priority fee
  /// paid to the sealer (and the eviction priority under a full mempool).
  Transaction make_tx(const Address& from, const Address& to,
                      std::uint64_t value, Bytes data = {},
                      std::uint64_t gas_limit = 0, std::uint64_t fee = 0);

  /// Queues a transaction; returns its hash. Fault sites: a
  /// `chain.mempool.drop` firing silently discards the transaction (the
  /// hash is still returned — the caller cannot tell until no receipt
  /// appears); `chain.mempool.duplicate` enqueues it twice;
  /// `chain.mempool.flood` injects a burst of filler transactions from a
  /// hostile account first, crowding cheap entries out of a capped pool.
  /// Re-execution of a duplicate is rejected by the per-account nonce
  /// tracking, so resubmitting an identical transaction is always safe
  /// (idempotent).
  Bytes submit(Transaction tx);

  /// Queues a contract deployment; returns the future contract address.
  Address submit_deployment(const Address& from,
                            std::unique_ptr<Contract> contract,
                            Bytes ctor_data);

  /// Seals the next block with the rotation's current validator on the
  /// canonical tip: executes every pending transaction, charges gas,
  /// extends the chain. Throws ValidatorUnavailable (mempool untouched)
  /// when the `chain.seal.validator_down` fault site fires. Returns the
  /// canonical tip after sealing — under the `chain.fork.compete` /
  /// `chain.reorg.during_dispute` fault sites a competing branch sealed in
  /// the same call may have won fork choice, so the returned block is not
  /// necessarily the one carrying the mempool's transactions.
  const Block& seal_block();

  /// Seals a competing block by `validator` (index into the validator set)
  /// on top of `parent_hash`, executing `txs` against *that branch's*
  /// state — the rollback-and-re-execute path a real node runs when it
  /// imports a fork. Pending deployments are not included (they only flow
  /// through the canonical seal_block()). Fork choice runs afterwards and
  /// may reorg the canonical chain. Throws ProtocolError for an unknown
  /// parent, an out-of-range validator, or a finalized (pruned) parent.
  const Block& seal_block_on(const Bytes& parent_hash, std::size_t validator,
                             std::vector<Transaction> txs);

  /// Forces canonical adoption of the branch ending at `tip_hash`,
  /// rolling the canonical caches back to the fork point and replaying
  /// the branch's blocks from their stored post-states. Fork choice
  /// normally does this automatically; the explicit path exists for
  /// tests and for operators recovering from a manual chain split. The
  /// next seal re-runs fork choice, which may switch away again if a
  /// heavier branch exists.
  void reorg_to(const Bytes& tip_hash);

  /// Balance movement initiated by an executing contract (payout/refund).
  /// Applies to the state of the branch being executed. Throws
  /// ContractRevert when `from` lacks funds.
  void transfer(const Address& from, const Address& to, std::uint64_t amount);

  // --- chain state (canonical branch) ---
  const std::vector<Block>& blocks() const { return blocks_; }
  const std::vector<Receipt>& receipts() const { return receipts_; }
  /// Receipt for a transaction hash on the *canonical* branch (nullopt if
  /// unknown, unsealed, or orphaned by a reorg).
  std::optional<Receipt> receipt_of(BytesView tx_hash) const;

  /// Contract instance at the canonical tip. The pointer stays valid
  /// across seals that extend the canonical chain, but a *reorg* replaces
  /// the live state wholesale from the winning branch's snapshot —
  /// re-fetch after any call that may have reorged. Treat it as
  /// read-only: direct writes bypass the per-block snapshots and are not
  /// covered by reorg rollback.
  Contract* contract_at(const Address& addr);

  /// Contract instance as of the canonical block `depth` blocks below the
  /// tip (depth 0 = tip). nullptr when the contract does not exist there;
  /// throws ProtocolError when the target block's state was pruned
  /// (deeper than max_fork_depth) or the chain is shorter than `depth`.
  const Contract* contract_at_depth(const Address& addr,
                                    std::uint64_t depth) const;
  /// Canonical block `depth` blocks below the tip (nullptr if the chain is
  /// shorter than depth+1 blocks).
  const Block* block_at_depth(std::uint64_t depth) const;

  /// Header hash of the canonical tip (empty before the first block).
  const Bytes& canonical_tip_hash() const { return canonical_tip_; }
  /// Number of blocks on the canonical chain.
  std::uint64_t height() const { return blocks_.size(); }
  /// Whether `hash` names a block on the current canonical chain.
  bool is_canonical(BytesView hash) const;

  /// Full audit: every tree node's parent link, numbering, tx root, seal
  /// and difficulty (in-turn encoding), plus the canonical caches (one
  /// block per height, linked hashes, matching the tree path from the
  /// canonical tip) and — unless reorg_to() manually steered the chain —
  /// agreement between the cached tip and a fresh fork-choice run.
  bool audit() const;

  const GasSchedule& gas_schedule() const { return schedule_; }
  const ChainStats& stats() const { return stats_; }
  const std::vector<Address>& validators() const { return validators_; }
  std::size_t mempool_size() const { return mempool_.size(); }
  std::size_t mempool_cap() const { return config_.mempool_cap; }
  std::size_t block_count() const { return tree_.size(); }

 private:
  struct PendingDeployment {
    Address from;
    Address at;
    std::unique_ptr<Contract> contract;
    Bytes ctor_data;
    std::uint64_t nonce = 0;
  };

  /// Everything a reorg must roll back: balances, consumed nonces and
  /// contract storage. Each sealed block stores its post-execution copy.
  struct ChainState {
    std::map<Address, std::uint64_t> balances;
    /// Nonces each account has already *executed* — duplicates delivered
    /// by a faulty mempool (or resubmitted by a retrying client) are
    /// rejected here instead of double-spending. A set (not a high-water
    /// mark) because deployments execute before calls within a block
    /// regardless of submission order. Branch-scoped: a transaction
    /// orphaned by a reorg genuinely re-executes on the winning branch.
    std::map<Address, std::set<std::uint64_t>> executed_nonces;
    std::map<Address, std::unique_ptr<Contract>> contracts;

    ChainState clone() const;
  };

  struct BlockNode {
    Block block;
    Bytes hash;                  // cached header hash
    std::uint64_t weight = 0;    // cumulative difficulty from genesis
    std::vector<Receipt> receipts;
    ChainState state;            // post-execution state of this block
    bool has_state = true;       // false once finalized (state pruned)
  };

  const BlockNode* node_of(BytesView hash) const;

  /// Core sealing: clones the parent's state, executes, inserts the node
  /// into the tree and re-runs fork choice. `run_deployments` drains
  /// pending_deployments_ (canonical path only).
  const BlockNode& seal_node(const Bytes& parent_hash,
                             std::size_t validator_index,
                             std::vector<Transaction> txs,
                             bool run_deployments);

  /// Fee-priority admission under the mempool cap.
  void enqueue(Transaction tx);
  /// chain.mempool.flood payload: burst of filler txs from a hostile
  /// account.
  void inject_flood();

  /// Longest-chain fork choice (ties: weight, then lowest seal hash);
  /// adopts the winner and rebuilds the canonical caches on a switch.
  void select_canonical();
  void adopt_canonical(const BlockNode& tip);
  bool tip_better(const BlockNode& a, const BlockNode& b) const;
  void prune_finalized();

  Bytes seal_of(const Block& block, const Address& validator) const;
  void execute_call(ChainState& st, const Transaction& tx,
                    const Address& sealer, std::uint64_t block_number,
                    Receipt& receipt);
  void execute_deployment(ChainState& st, PendingDeployment& dep,
                          std::uint64_t block_number, Receipt& receipt);

  GasSchedule schedule_;
  BlockchainConfig config_;
  std::vector<Address> validators_;
  std::map<Address, Bytes> validator_keys_;  // seal "signing" keys

  /// Per-account transaction *allocation* counter (make_tx). Monotonic and
  /// never rolled back — it is the wallet's counter, not chain state.
  std::map<Address, std::uint64_t> nonces_;

  ChainState genesis_state_;              // pre-block balances (faucet)
  /// The canonical tip's state, mutated in place by canonical seals so
  /// contract_at() pointers stay stable along the happy path; replaced
  /// from the winning node's snapshot on reorg.
  ChainState live_;
  std::map<Bytes, BlockNode> tree_;       // header hash -> node
  Bytes canonical_tip_;                   // empty before the first block
  bool manual_canonical_ = false;         // reorg_to() override in effect

  /// Branch state under execution; transfer()/balance() route here so
  /// contracts observe the branch they run on, not the canonical tip.
  ChainState* exec_state_ = nullptr;

  std::vector<Transaction> mempool_;
  std::vector<PendingDeployment> pending_deployments_;

  /// Canonical-branch caches, rebuilt on reorg: the flat views every
  /// pre-fork caller (tests, benches, examples) indexes directly.
  std::vector<Block> blocks_;
  std::vector<Receipt> receipts_;

  ChainStats stats_;
  std::uint64_t clock_ = 0;
};

}  // namespace slicer::chain
