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
// over clause indices. NOT never reaches the plan — it is pushed to the
// leaves by De Morgan and eliminated by interval complement (¬(v > x) is
// (v < x) ∨ (v = x), and so on), so every clause the cloud sees is an
// ordinary Algorithm-3 search and every combinator input is a
// clause-verified result set. Negation is therefore scoped to the records
// that carry the attribute: ¬(age = 5) returns the records whose age is
// ≠ 5, not records with no age at all (there is no verifiable way to
// enumerate records a keyword was never indexed under).
//
// The degenerate "everything" predicate (e.g. NOT of a provably empty
// interval) compiles to (v > 0) ∨ (v = 0) over the leaf's attribute — the
// full domain as two verifiable clauses — so even it returns only
// clause-verified results.
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

/// Per-query knobs: every query resolves one QueryOptions and nothing
/// below it consults the environment. defaults() reads the env knob
/// through env::flag_knob exactly once per call, so the environment stays
/// a *default*, not a hidden override.
struct QueryOptions {
  /// Held only for perfbench/bench.cpp; the aggregated VO is removed.
  static constexpr bool aggregated_vo = false;
  /// Throw CryptoError on a provably empty interval instead of compiling
  /// it to a verified-empty clause (SLICER_STRICT_INTERVALS default).
  bool strict_intervals = false;

  /// The environment-resolved defaults (see above).
  static QueryOptions defaults();
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
/// compiled away) plus kEmpty for provably empty intervals.
struct PlanNode {
  enum class Kind : std::uint8_t { kClause, kEmpty, kAnd, kOr };
  Kind kind = Kind::kClause;
  std::size_t clause = 0;             ///< kClause: index into clauses
  std::vector<std::size_t> children;  ///< kAnd/kOr: indices into nodes

  bool operator==(const PlanNode&) const = default;
};

/// A compiled query: deduplicated primitive clauses + evaluation tree.
/// Clause order is the left-to-right leaf order of the QuerySpec, which is
/// also the token_detail concatenation order of the result.
struct ClausePlan {
  std::vector<PlanClause> clauses;
  std::vector<PlanNode> nodes;
  std::size_t root = 0;  ///< index into nodes
  /// Number of provably-empty intervals compiled to kEmpty nodes.
  std::size_t empty_intervals = 0;

  bool operator==(const ClausePlan&) const = default;
};

/// Everything compile_spec needs besides the tree itself.
struct PlanContext {
  /// Substituted for leaves with an empty attribute name.
  std::string default_attribute;
  /// Held only for perfbench/bench.cpp; compile_spec rejects true.
  bool aggregated = false;
  /// Empty intervals throw CryptoError instead of compiling to kEmpty.
  bool strict_intervals = false;
};

/// Lowers a QuerySpec into a ClausePlan (see the file comment for the
/// normalization rules). Throws ProtocolError on a malformed tree (AND/OR
/// without children, NOT without exactly one child) or on
/// `ctx.aggregated`, and CryptoError on an empty interval under
/// strict_intervals.
ClausePlan compile_spec(const QuerySpec& spec, const PlanContext& ctx);

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
