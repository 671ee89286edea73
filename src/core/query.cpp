#include "core/query.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "common/env.hpp"
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

QueryOptions QueryOptions::defaults() {
  QueryOptions o;
  o.strict_intervals = env::flag_knob("SLICER_STRICT_INTERVALS");
  return o;
}

std::vector<PlanClause> dyadic_cover(const std::string& attribute,
                                     std::uint64_t lo, std::uint64_t hi) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (lo > hi) return {};
  // Greedy from the left: the widest block aligned at `start` that ends
  // inside [lo, hi]. A block of 2^k values fits when hi - start >= 2^k - 1;
  // the k = 64 block is the whole u64 domain. Each clause is keyed by a
  // hash of (attribute, block id) for the emission order below.
  std::vector<std::pair<Bytes, PlanClause>> keyed;
  for (std::uint64_t start = lo;;) {
    const std::uint64_t span = hi - start;
    int k = start == 0 ? 64 : std::countr_zero(start);
    while (k == 64 ? span != kMax : (std::uint64_t{1} << k) - 1 > span) --k;
    const PlanClause clause =
        k == 0 ? PlanClause{attribute, start, MatchCondition::kEqual}
               : PlanClause{attribute, start + (std::uint64_t{1} << (k - 1)),
                            MatchCondition::kBlock};
    Writer w;
    w.str(attribute);
    w.u64(clause.value);
    keyed.emplace_back(crypto::Sha256::digest(w.view()), clause);
    if (k == 64 || (std::uint64_t{1} << k) - 1 == span) break;
    start += std::uint64_t{1} << k;
  }
  // Hash order says nothing about where each block lies. Blocks of one
  // cover are disjoint, so no two share an id.
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<PlanClause> out;
  out.reserve(keyed.size());
  for (auto& [key, clause] : keyed) out.push_back(std::move(clause));
  return out;
}

namespace {

/// compile_spec working state: the plan under construction plus the
/// clause-dedup map keyed by (attribute, value, mc).
struct Compiler {
  const PlanContext& ctx;
  ClausePlan plan;
  std::map<std::tuple<std::string, std::uint64_t, MatchCondition>, std::size_t>
      clause_index;

  std::size_t clause_node(const std::string& attribute, std::uint64_t value,
                          MatchCondition mc) {
    auto key = std::make_tuple(attribute, value, mc);
    auto [it, inserted] =
        clause_index.try_emplace(key, plan.clauses.size());
    if (inserted) {
      plan.clauses.push_back(PlanClause{attribute, value, mc});
    }
    plan.nodes.push_back(PlanNode{PlanNode::Kind::kClause, it->second, {}});
    return plan.nodes.size() - 1;
  }

  std::size_t empty_node(const char* what) {
    if (ctx.strict_intervals) {
      throw CryptoError(std::string(what) + ": empty interval");
    }
    ++plan.empty_intervals;
    plan.nodes.push_back(PlanNode{PlanNode::Kind::kEmpty, 0, {}});
    return plan.nodes.size() - 1;
  }

  std::size_t inner_node(PlanNode::Kind kind,
                         std::vector<std::size_t> children) {
    if (children.size() == 1) return children.front();
    plan.nodes.push_back(PlanNode{kind, 0, std::move(children)});
    return plan.nodes.size() - 1;
  }

  /// [lo, hi] as the OR of its dyadic cover clauses (lo <= hi).
  std::size_t cover_node(const std::string& attribute, std::uint64_t lo,
                         std::uint64_t hi) {
    std::vector<std::size_t> kids;
    for (const PlanClause& c : dyadic_cover(attribute, lo, hi))
      kids.push_back(clause_node(c.attribute, c.value, c.mc));
    return inner_node(PlanNode::Kind::kOr, std::move(kids));
  }

  /// The full domain over `attribute` as two verifiable clauses:
  /// (v > 0) OR (v = 0). Used for negated provably-empty intervals.
  std::size_t domain_node(const std::string& attribute) {
    std::vector<std::size_t> kids;
    kids.push_back(clause_node(attribute, 0, MatchCondition::kGreater));
    kids.push_back(clause_node(attribute, 0, MatchCondition::kEqual));
    return inner_node(PlanNode::Kind::kOr, std::move(kids));
  }

  std::size_t lower_leaf(const QuerySpec& s, bool negate) {
    const std::string& attribute =
        s.attribute.empty() ? ctx.default_attribute : s.attribute;
    switch (s.op) {
      case QuerySpec::Op::kEqual: {
        if (!negate) {
          return clause_node(attribute, s.value, MatchCondition::kEqual);
        }
        // ¬(v = x)  →  (v < x) OR (v > x)
        std::vector<std::size_t> kids;
        kids.push_back(clause_node(attribute, s.value, MatchCondition::kLess));
        kids.push_back(
            clause_node(attribute, s.value, MatchCondition::kGreater));
        return inner_node(PlanNode::Kind::kOr, std::move(kids));
      }
      case QuerySpec::Op::kGreater: {
        if (!negate) {
          return clause_node(attribute, s.value, MatchCondition::kGreater);
        }
        // ¬(v > x)  →  (v < x) OR (v = x)
        std::vector<std::size_t> kids;
        kids.push_back(clause_node(attribute, s.value, MatchCondition::kLess));
        kids.push_back(clause_node(attribute, s.value, MatchCondition::kEqual));
        return inner_node(PlanNode::Kind::kOr, std::move(kids));
      }
      case QuerySpec::Op::kLess: {
        if (!negate) {
          return clause_node(attribute, s.value, MatchCondition::kLess);
        }
        // ¬(v < x)  →  (v > x) OR (v = x)
        std::vector<std::size_t> kids;
        kids.push_back(
            clause_node(attribute, s.value, MatchCondition::kGreater));
        kids.push_back(clause_node(attribute, s.value, MatchCondition::kEqual));
        return inner_node(PlanNode::Kind::kOr, std::move(kids));
      }
      case QuerySpec::Op::kBetween: {
        // Exclusive interval lo < v < hi; provably empty unless hi - lo >= 2.
        const bool empty = s.hi <= s.lo || s.hi - s.lo < 2;
        if (!negate) {
          if (empty) return empty_node("between");
          return cover_node(attribute, s.lo + 1, s.hi - 1);
        }
        // ¬empty is every record carrying the attribute; an empty interval
        // under strict_intervals only throws when queried positively.
        if (empty) return domain_node(attribute);
        // ¬(lo < v < hi)  →  (v <= lo) OR (v >= hi)
        std::vector<std::size_t> kids;
        kids.push_back(clause_node(attribute, s.lo, MatchCondition::kLess));
        kids.push_back(clause_node(attribute, s.lo, MatchCondition::kEqual));
        kids.push_back(clause_node(attribute, s.hi, MatchCondition::kGreater));
        kids.push_back(clause_node(attribute, s.hi, MatchCondition::kEqual));
        return inner_node(PlanNode::Kind::kOr, std::move(kids));
      }
      case QuerySpec::Op::kBetweenInclusive: {
        if (!negate) {
          if (s.lo > s.hi) return empty_node("between_inclusive");
          return cover_node(attribute, s.lo, s.hi);
        }
        if (s.lo > s.hi) return domain_node(attribute);
        // ¬(lo <= v <= hi)  →  (v < lo) OR (v > hi)
        std::vector<std::size_t> kids;
        kids.push_back(clause_node(attribute, s.lo, MatchCondition::kLess));
        kids.push_back(clause_node(attribute, s.hi, MatchCondition::kGreater));
        return inner_node(PlanNode::Kind::kOr, std::move(kids));
      }
    }
    throw ProtocolError("compile_spec: unknown leaf op");
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

ClausePlan compile_spec(const QuerySpec& spec, const PlanContext& ctx) {
  if (ctx.aggregated)
    throw ProtocolError("compile_spec: the aggregated read path is removed");
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
