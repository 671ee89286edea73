#include "core/query.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "common/errors.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace slicer::core {

namespace {

QuerySpec leaf(std::string attribute, QuerySpec::Op op, std::uint64_t value,
               std::uint64_t lo, std::uint64_t hi) {
  QuerySpec s;
  s.kind = QuerySpec::Kind::kLeaf;
  s.op = op;
  s.attribute = std::move(attribute);
  s.value = value;
  s.lo = lo;
  s.hi = hi;
  return s;
}

QuerySpec combine(QuerySpec::Kind kind, QuerySpec a, QuerySpec b) {
  // Left-deep chains of the same operator flatten, so a && b && c is one
  // kAnd with three children (matches the printed form and keeps clause
  // order the left-to-right leaf order of the expression).
  if (a.kind == kind) {
    a.children.push_back(std::move(b));
    return a;
  }
  QuerySpec s;
  s.kind = kind;
  s.children.push_back(std::move(a));
  s.children.push_back(std::move(b));
  return s;
}

}  // namespace

Pred Pred::Attr::eq(std::uint64_t v) const {
  return Pred(leaf(name_, QuerySpec::Op::kEqual, v, 0, 0));
}

Pred Pred::Attr::gt(std::uint64_t v) const {
  return Pred(leaf(name_, QuerySpec::Op::kGreater, v, 0, 0));
}

Pred Pred::Attr::lt(std::uint64_t v) const {
  return Pred(leaf(name_, QuerySpec::Op::kLess, v, 0, 0));
}

Pred Pred::Attr::between(std::uint64_t lo, std::uint64_t hi) const {
  return Pred(leaf(name_, QuerySpec::Op::kBetween, 0, lo, hi));
}

Pred Pred::Attr::between_inclusive(std::uint64_t lo, std::uint64_t hi) const {
  return Pred(leaf(name_, QuerySpec::Op::kBetweenInclusive, 0, lo, hi));
}

Pred operator&&(Pred a, Pred b) {
  return Pred(combine(QuerySpec::Kind::kAnd, std::move(a.spec_),
                      std::move(b.spec_)));
}

Pred operator||(Pred a, Pred b) {
  return Pred(combine(QuerySpec::Kind::kOr, std::move(a.spec_),
                      std::move(b.spec_)));
}

Pred operator!(Pred a) {
  // Double negation cancels instead of stacking kNot nodes.
  if (a.spec_.kind == QuerySpec::Kind::kNot) {
    return Pred(std::move(a.spec_.children.front()));
  }
  QuerySpec s;
  s.kind = QuerySpec::Kind::kNot;
  s.children.push_back(std::move(a.spec_));
  return Pred(std::move(s));
}

std::string QuerySpec::to_string() const {
  switch (kind) {
    case Kind::kLeaf: {
      std::string name = attribute.empty() ? std::string("value") : attribute;
      switch (op) {
        case Op::kEqual:
          return "(" + name + " = " + std::to_string(value) + ")";
        case Op::kGreater:
          return "(" + name + " > " + std::to_string(value) + ")";
        case Op::kLess:
          return "(" + name + " < " + std::to_string(value) + ")";
        case Op::kBetween:
          return "(" + name + " in (" + std::to_string(lo) + "," +
                 std::to_string(hi) + "))";
        case Op::kBetweenInclusive:
          return "(" + name + " in [" + std::to_string(lo) + "," +
                 std::to_string(hi) + "])";
      }
      return "(?)";
    }
    case Kind::kNot:
      return "(NOT " +
             (children.empty() ? std::string("?") : children[0].to_string()) +
             ")";
    case Kind::kAnd:
    case Kind::kOr: {
      const char* sep = kind == Kind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (i != 0) out += sep;
        out += children[i].to_string();
      }
      return out + ")";
    }
  }
  return "(?)";
}

namespace {

/// Appends the blocks of [lo, hi] (lo <= hi) in position order: greedy from
/// the left, the widest block aligned at `start` that ends inside [lo, hi].
/// A block of 2^k values fits when hi - start >= 2^k - 1; the k = 64 block
/// is the whole u64 domain.
void append_blocks(const std::string& attribute, std::uint64_t lo,
                   std::uint64_t hi, std::vector<PlanClause>& out) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (std::uint64_t start = lo;;) {
    const std::uint64_t span = hi - start;
    int k = start == 0 ? 64 : std::countr_zero(start);
    while (k == 64 ? span != kMax : (std::uint64_t{1} << k) - 1 > span) --k;
    out.push_back(
        k == 0 ? PlanClause{attribute, start, MatchCondition::kEqual}
               : PlanClause{attribute, start + (std::uint64_t{1} << (k - 1)),
                            MatchCondition::kBlock});
    if (k == 64 || (std::uint64_t{1} << k) - 1 == span) break;
    start += std::uint64_t{1} << k;
  }
}

/// Sorts disjoint blocks by a SHA-256 of (attribute, block id). Hash order
/// says nothing about where each block lies, and disjoint blocks never
/// share an id.
void hash_order(std::vector<PlanClause>& blocks) {
  std::vector<std::pair<Bytes, PlanClause>> keyed;
  keyed.reserve(blocks.size());
  for (PlanClause& clause : blocks) {
    Writer w;
    w.str(clause.attribute);
    w.u64(clause.value);
    keyed.emplace_back(crypto::Sha256::digest(w.view()), std::move(clause));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  blocks.clear();
  for (auto& [key, clause] : keyed) blocks.push_back(std::move(clause));
}

/// One inclusive interval [lo, hi] of the value domain.
struct Interval {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// The values a leaf matches as one interval of [0, max], or nullopt when
/// it matches none. Throws CryptoError when a compared value, or a
/// nonempty interval, lies outside the domain.
std::optional<Interval> leaf_interval(const QuerySpec& s, std::uint64_t max) {
  const auto in_domain = [max](std::uint64_t v) {
    if (v > max) throw CryptoError("compile_spec: value outside the domain");
    return v;
  };
  switch (s.op) {
    case QuerySpec::Op::kEqual:
      return Interval{in_domain(s.value), s.value};
    case QuerySpec::Op::kGreater:
      if (in_domain(s.value) == max) return std::nullopt;
      return Interval{s.value + 1, max};
    case QuerySpec::Op::kLess:
      if (in_domain(s.value) == 0) return std::nullopt;
      return Interval{0, s.value - 1};
    case QuerySpec::Op::kBetween:
      if (s.hi <= s.lo || s.hi - s.lo < 2) return std::nullopt;
      return Interval{s.lo + 1, in_domain(s.hi - 1)};
    case QuerySpec::Op::kBetweenInclusive:
      if (s.lo > s.hi) return std::nullopt;
      return Interval{s.lo, in_domain(s.hi)};
  }
  throw ProtocolError("compile_spec: unknown leaf op");
}

/// compile_spec working state: the plan under construction plus the
/// clause-dedup map keyed by (attribute, value, mc).
struct Compiler {
  const PlanContext& ctx;
  ClausePlan plan;
  std::map<std::tuple<std::string, std::uint64_t, MatchCondition>, std::size_t>
      clause_index;

  std::size_t clause_node(const PlanClause& clause) {
    auto [it, inserted] = clause_index.try_emplace(
        std::make_tuple(clause.attribute, clause.value, clause.mc),
        plan.clauses.size());
    if (inserted) plan.clauses.push_back(clause);
    plan.nodes.push_back(PlanNode{PlanNode::Kind::kClause, it->second, {}});
    return plan.nodes.size() - 1;
  }

  std::size_t inner_node(PlanNode::Kind kind,
                         std::vector<std::size_t> children) {
    if (children.size() == 1) return children.front();
    plan.nodes.push_back(PlanNode{kind, 0, std::move(children)});
    return plan.nodes.size() - 1;
  }

  /// A leaf that matches nothing: a verified-empty node.
  std::size_t empty_node() {
    ++plan.empty_intervals;
    plan.nodes.push_back(PlanNode{PlanNode::Kind::kEmpty, 0, {}});
    return plan.nodes.size() - 1;
  }

  /// A leaf, or its complement within the domain, as the OR of the dyadic
  /// cover of its (at most two) intervals, all blocks in one hash order.
  std::size_t lower_leaf(const QuerySpec& s, bool negate) {
    const std::string& attribute =
        s.attribute.empty() ? ctx.default_attribute : s.attribute;
    const std::uint64_t max = domain_max(ctx.value_bits);
    const std::optional<Interval> in = leaf_interval(s, max);
    std::vector<Interval> parts;
    if (!negate) {
      if (in) parts.push_back(*in);
    } else if (!in) {
      parts.push_back({0, max});
    } else {
      if (in->lo > 0) parts.push_back({0, in->lo - 1});
      if (in->hi < max) parts.push_back({in->hi + 1, max});
    }
    if (parts.empty()) return empty_node();
    std::vector<PlanClause> blocks;
    for (const Interval& part : parts)
      append_blocks(attribute, part.lo, part.hi, blocks);
    hash_order(blocks);
    std::vector<std::size_t> kids;
    for (const PlanClause& block : blocks) kids.push_back(clause_node(block));
    return inner_node(PlanNode::Kind::kOr, std::move(kids));
  }

  std::size_t lower(const QuerySpec& s, bool negate) {
    switch (s.kind) {
      case QuerySpec::Kind::kLeaf:
        if (!s.children.empty()) {
          throw ProtocolError("compile_spec: leaf with children");
        }
        return lower_leaf(s, negate);
      case QuerySpec::Kind::kNot:
        if (s.children.size() != 1) {
          throw ProtocolError("compile_spec: NOT expects exactly one child");
        }
        return lower(s.children[0], !negate);
      case QuerySpec::Kind::kAnd:
      case QuerySpec::Kind::kOr: {
        if (s.children.empty()) {
          throw ProtocolError("compile_spec: AND/OR without children");
        }
        // De Morgan: a negated conjunction lowers as a disjunction of the
        // negated children (and vice versa), so kNot never reaches the plan.
        const bool is_and = (s.kind == QuerySpec::Kind::kAnd) != negate;
        std::vector<std::size_t> kids;
        kids.reserve(s.children.size());
        for (const QuerySpec& child : s.children) {
          kids.push_back(lower(child, negate));
        }
        return inner_node(is_and ? PlanNode::Kind::kAnd : PlanNode::Kind::kOr,
                          std::move(kids));
      }
    }
    throw ProtocolError("compile_spec: unknown node kind");
  }
};

}  // namespace

std::uint64_t domain_max(std::size_t bits) {
  return bits >= 64 ? std::numeric_limits<std::uint64_t>::max()
                    : (std::uint64_t{1} << bits) - 1;
}

std::vector<PlanClause> dyadic_cover(const std::string& attribute,
                                     std::uint64_t lo, std::uint64_t hi) {
  std::vector<PlanClause> out;
  if (lo > hi) return out;
  append_blocks(attribute, lo, hi, out);
  hash_order(out);
  return out;
}

ClausePlan compile_spec(const QuerySpec& spec, const PlanContext& ctx) {
  if (ctx.aggregated)
    throw ProtocolError("compile_spec: the aggregated read path is removed");
  if (ctx.strict_intervals)
    throw ProtocolError("compile_spec: strict-interval mode is removed");
  Compiler c{ctx, {}, {}};
  c.plan.root = c.lower(spec, /*negate=*/false);
  return std::move(c.plan);
}

namespace {

bool eval_leaf(const QuerySpec& s, bool negate, std::uint64_t v) {
  bool match = false;
  switch (s.op) {
    case QuerySpec::Op::kEqual:
      match = v == s.value;
      break;
    case QuerySpec::Op::kGreater:
      match = v > s.value;
      break;
    case QuerySpec::Op::kLess:
      match = v < s.value;
      break;
    case QuerySpec::Op::kBetween:
      match = s.lo < v && v < s.hi;
      break;
    case QuerySpec::Op::kBetweenInclusive:
      match = s.lo <= v && v <= s.hi;
      break;
  }
  return match != negate;
}

bool eval_node(const QuerySpec& s, bool negate, const MultiRecord& record,
               const std::string& default_attribute) {
  switch (s.kind) {
    case QuerySpec::Kind::kLeaf: {
      const std::string& attribute =
          s.attribute.empty() ? default_attribute : s.attribute;
      // Attribute-scoped semantics: a record that does not carry the
      // attribute matches neither the leaf nor its negation (mirrors the
      // planner, which can only return records the attribute was indexed
      // under).
      for (const AttributeValue& av : record.values) {
        if (av.attribute == attribute) return eval_leaf(s, negate, av.value);
      }
      return false;
    }
    case QuerySpec::Kind::kNot:
      if (s.children.size() != 1) {
        throw ProtocolError("eval_spec: NOT expects exactly one child");
      }
      return eval_node(s.children[0], !negate, record, default_attribute);
    case QuerySpec::Kind::kAnd:
    case QuerySpec::Kind::kOr: {
      if (s.children.empty()) {
        throw ProtocolError("eval_spec: AND/OR without children");
      }
      const bool is_and = (s.kind == QuerySpec::Kind::kAnd) != negate;
      for (const QuerySpec& child : s.children) {
        const bool hit = eval_node(child, negate, record, default_attribute);
        if (is_and && !hit) return false;
        if (!is_and && hit) return true;
      }
      return is_and;
    }
  }
  throw ProtocolError("eval_spec: unknown node kind");
}

}  // namespace

bool eval_spec(const QuerySpec& spec, const MultiRecord& record,
               const std::string& default_attribute) {
  return eval_node(spec, /*negate=*/false, record, default_attribute);
}

bool eval_spec(const QuerySpec& spec, const Record& record) {
  MultiRecord multi;
  multi.id = record.id;
  multi.values.push_back(AttributeValue{std::string(), record.value});
  return eval_spec(spec, multi, std::string());
}

}  // namespace slicer::core
