// QuerySpec: the boolean query planner's predicate language.
//
// The paper's protocol answers one primitive condition per query
// (=, >, <); vChain-style boolean range queries compose them. A QuerySpec
// is a predicate tree — AND/OR/NOT over per-attribute interval/equality
// leaves — built with the fluent Pred builder:
//
//   core::QuerySpec spec = core::Pred::attr("age").between(30, 40) &&
//                          core::Pred::attr("dept").eq(7);
//   core::QueryResult r = client.query(spec);
//
// compile_spec lowers the tree into a ClausePlan: a deduplicated list of
// primitive clauses (attribute, value, mc) plus an AND/OR evaluation tree
// over clause indices. Every leaf is one inclusive interval of the b-bit
// domain ([x, x], [x+1, max], [0, x-1], [lo+1, hi-1] or [lo, hi]) and
// becomes the OR of its dyadic cover (dyadic_cover): aligned blocks, each
// one SORE ciphertext-tuple keyword (a kBlock clause) or one value
// (kEqual), so the cloud returns exactly the answer. NOT never reaches the
// plan: De Morgan pushes it to the leaves, where a negated leaf becomes the
// cover of its complement within the domain (at most two intervals, the
// whole domain for an empty leaf). Every clause the cloud sees is therefore
// one verifiable block search and every combinator input is a
// clause-verified result set. Negation is scoped to the records that carry
// the attribute: ¬(age = 5) returns the records whose age is ≠ 5, not
// records with no age at all (there is no verifiable way to enumerate
// records a keyword was never indexed under).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "core/types.hpp"

namespace slicer::core {

/// One node of a boolean predicate tree. Leaves name a comparison on one
/// attribute; kAnd/kOr carry >= 1 children, kNot exactly one.
struct QuerySpec {
  enum class Kind : std::uint8_t { kLeaf, kAnd, kOr, kNot };
  /// Leaf comparison. kBetween is the exclusive interval lo < v < hi (the
  /// legacy `between` verb); kBetweenInclusive is lo <= v <= hi.
  enum class Op : std::uint8_t {
    kEqual,
    kGreater,
    kLess,
    kBetween,
    kBetweenInclusive,
  };

  Kind kind = Kind::kLeaf;
  Op op = Op::kEqual;
  /// Leaf attribute; empty selects the database's default attribute.
  std::string attribute;
  std::uint64_t value = 0;     // kEqual / kGreater / kLess
  std::uint64_t lo = 0;        // kBetween / kBetweenInclusive
  std::uint64_t hi = 0;
  std::vector<QuerySpec> children;

  /// Human-readable rendering, e.g. ((age in (30,40)) AND (dept = 7)).
  std::string to_string() const;

  bool operator==(const QuerySpec&) const = default;
};

/// Fluent QuerySpec builder. Pred::attr("age") names an attribute;
/// the comparison verbs return a Pred (implicitly a QuerySpec) that
/// composes with && / || / !.
class Pred {
 public:
  /// One attribute's comparison verbs.
  class Attr {
   public:
    explicit Attr(std::string name) : name_(std::move(name)) {}

    Pred eq(std::uint64_t v) const;
    Pred gt(std::uint64_t v) const;
    Pred lt(std::uint64_t v) const;
    /// Exclusive interval lo < v < hi (the legacy `between`).
    Pred between(std::uint64_t lo, std::uint64_t hi) const;
    /// Inclusive interval lo <= v <= hi.
    Pred between_inclusive(std::uint64_t lo, std::uint64_t hi) const;

   private:
    std::string name_;
  };

  /// Builder entry point for a named attribute.
  static Attr attr(std::string name) { return Attr(std::move(name)); }
  /// Builder entry point for the database's default attribute.
  static Attr value() { return Attr(std::string()); }

  /// A Pred is transparently its QuerySpec.
  const QuerySpec& spec() const { return spec_; }
  operator QuerySpec() const& { return spec_; }
  operator QuerySpec() && { return std::move(spec_); }

  friend Pred operator&&(Pred a, Pred b);
  friend Pred operator||(Pred a, Pred b);
  friend Pred operator!(Pred a);

  explicit Pred(QuerySpec spec) : spec_(std::move(spec)) {}

 private:
  QuerySpec spec_;
};

/// Held only for perfbench/bench.cpp: a query has no options. Both members
/// are fixed to the only behaviour left (per-token VOs; a leaf that matches
/// no value compiles to a verified-empty node).
struct QueryOptions {
  static constexpr bool aggregated_vo = false;
  static constexpr bool strict_intervals = false;

  static QueryOptions defaults() { return {}; }
};

/// One primitive clause of a compiled plan: a single Algorithm-3 search.
struct PlanClause {
  std::string attribute;
  std::uint64_t value = 0;
  MatchCondition mc = MatchCondition::kEqual;
  /// Held only for perfbench/bench.cpp; the aggregated VO is removed.
  static constexpr bool aggregated = false;

  bool operator==(const PlanClause&) const = default;
};

/// One node of the plan's evaluation tree. Children precede parents in
/// ClausePlan::nodes; the tree is pure AND/OR over clause leaves (NOT was
/// compiled away) plus kEmpty for leaves that match no value.
struct PlanNode {
  enum class Kind : std::uint8_t { kClause, kEmpty, kAnd, kOr };
  Kind kind = Kind::kClause;
  std::size_t clause = 0;             ///< kClause: index into clauses
  std::vector<std::size_t> children;  ///< kAnd/kOr: indices into nodes

  bool operator==(const PlanNode&) const = default;
};

/// A compiled query: deduplicated primitive clauses + evaluation tree.
/// Clause order is the left-to-right leaf order of the QuerySpec (within one
/// leaf, the hash order of its cover blocks), which is also the
/// token_detail concatenation order of the result.
struct ClausePlan {
  std::vector<PlanClause> clauses;
  std::vector<PlanNode> nodes;
  std::size_t root = 0;  ///< index into nodes
  /// Number of leaves that match no value, compiled to kEmpty nodes.
  std::size_t empty_intervals = 0;

  bool operator==(const ClausePlan&) const = default;
};

/// Everything compile_spec needs besides the tree itself.
struct PlanContext {
  /// Substituted for leaves with an empty attribute name.
  std::string default_attribute{};
  /// Held only for perfbench/bench.cpp; compile_spec rejects true.
  bool aggregated = false;
  /// Held only for perfbench/bench.cpp; compile_spec rejects true (a leaf
  /// that matches no value always compiles to kEmpty).
  bool strict_intervals = false;
  /// Bit width b of the domain [0, 2^b - 1] that leaves and complements
  /// range over (Config::value_bits; 64 is the whole u64 range).
  std::size_t value_bits = 64;
};

/// Largest value of the b-bit domain: 2^b - 1, the u64 maximum for b >= 64.
std::uint64_t domain_max(std::size_t bits);

/// Lowers a QuerySpec into a ClausePlan (see the file comment for the
/// normalization rules). A leaf that matches no value (gt(max), lt(0), an
/// empty interval, the complement of the whole domain) compiles to a
/// kEmpty node. Throws ProtocolError on a malformed tree (AND/OR without
/// children, NOT without exactly one child) or on `ctx.aggregated` or
/// `ctx.strict_intervals`. Throws CryptoError, before any token is made, on
/// a compared value or a nonempty interval outside the domain.
ClausePlan compile_spec(const QuerySpec& spec, const PlanContext& ctx);

/// The dyadic cover of [lo, hi] over `attribute`: the fewest aligned blocks
/// whose union is exactly the interval (at most 2(b-1) inside a b-bit
/// domain; empty when lo > hi). A one-value block is a kEqual clause; a
/// block of 2^k values starting at s is a kBlock clause with value
/// s + 2^(k-1). Clauses come in the order of a SHA-256 of (attribute, block
/// id), not by position, so the clause order hides where each block lies.
std::vector<PlanClause> dyadic_cover(const std::string& attribute,
                                     std::uint64_t lo, std::uint64_t hi);

/// Plaintext reference evaluation of a QuerySpec against one record —
/// exactly the semantics compile_spec lowers to (attribute-scoped
/// negation: a leaf, negated or not, only ever matches records that carry
/// its attribute). This is the brute-force oracle the planner property
/// tests compare against.
bool eval_spec(const QuerySpec& spec, const MultiRecord& record,
               const std::string& default_attribute = {});

/// Single-attribute convenience overload of eval_spec.
bool eval_spec(const QuerySpec& spec, const Record& record);

// --- batched clause execution (client <-> cloud, one round trip) ---------

/// One clause of a batched plan search: the clause's search tokens.
struct ClauseRequest {
  /// Held only for perfbench/bench.cpp: the wire mode byte, true rejected.
  bool aggregated = false;
  std::vector<SearchToken> tokens;

  bool operator==(const ClauseRequest&) const = default;
};

/// The cloud's answer for one clause: one TokenReply (results + VO) per
/// token, in submission order.
struct ClauseReply {
  /// Held only for perfbench/bench.cpp; the aggregated VO is removed.
  static constexpr bool aggregated = false;
  std::vector<TokenReply> replies;
  /// Held only for perfbench/bench.cpp; always empty.
  QueryReply query_reply;

  bool operator==(const ClauseReply&) const = default;
};

}  // namespace slicer::core
