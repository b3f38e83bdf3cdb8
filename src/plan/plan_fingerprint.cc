#include "plan/plan_fingerprint.h"

#include <cstring>

#include "storage/table.h"

namespace ma::plan {

namespace {

// Length-prefixed, tagged encoding: unambiguous by construction (no two
// distinct plans share a canon), append-only friendly.
void PutU8(std::string* out, u8 v) { out->push_back(static_cast<char>(v)); }

void PutU64(std::string* out, u64 v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutStr(std::string* out, std::string_view s) {
  PutU64(out, s.size());
  out->append(s.data(), s.size());
}

void PutF64(std::string* out, f64 v) {
  u64 bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}

void PutExpr(std::string* out, const Expr* e) {
  if (e == nullptr) {
    PutU8(out, 0xff);
    return;
  }
  PutU8(out, static_cast<u8>(e->kind));
  PutStr(out, e->column);
  PutU8(out, static_cast<u8>(e->lit_type));
  PutU64(out, static_cast<u64>(e->lit_i));
  PutF64(out, e->lit_f);
  PutStr(out, e->lit_s);
  PutStr(out, e->op);
  PutU64(out, static_cast<u64>(e->sub_start));
  PutU64(out, static_cast<u64>(e->sub_len));
  PutU64(out, e->children.size());
  for (const ExprPtr& c : e->children) PutExpr(out, c.get());
}

void PutPairs(std::string* out,
              const std::vector<std::pair<std::string, std::string>>& ps) {
  PutU64(out, ps.size());
  for (const auto& [a, b] : ps) {
    PutStr(out, a);
    PutStr(out, b);
  }
}

/// `labels` = false omits node labels — the variant behind
/// SubtreeCanon, where display-only label prefixes must not keep
/// structurally identical subtrees apart.
void PutNode(std::string* out, const PlanNode& n, bool labels) {
  PutU8(out, static_cast<u8>(n.kind));
  PutStr(out, labels ? std::string_view(n.label) : std::string_view());
  switch (n.kind) {
    case NodeKind::kScan: {
      // Table identity + name + full column schema: the pointer keys the
      // exact catalog object, the schema acts as its version (AddColumn
      // changes the fingerprint).
      PutU64(out, reinterpret_cast<u64>(n.table));
      if (n.table != nullptr) {
        PutStr(out, n.table->name());
        PutU64(out, n.table->num_columns());
        for (size_t i = 0; i < n.table->num_columns(); ++i) {
          PutStr(out, n.table->column_name(i));
          PutU8(out, static_cast<u8>(n.table->column(i)->type()));
        }
      }
      PutU64(out, n.columns.size());
      for (const std::string& c : n.columns) PutStr(out, c);
      break;
    }
    case NodeKind::kFilter:
      PutExpr(out, n.predicate.get());
      break;
    case NodeKind::kProject:
      PutU64(out, n.outputs.size());
      for (const auto& o : n.outputs) {
        PutStr(out, o.name);
        PutExpr(out, o.expr.get());
      }
      break;
    case NodeKind::kHashJoin:
      PutStr(out, n.hash_spec.build_key);
      PutStr(out, n.hash_spec.probe_key);
      PutPairs(out, n.hash_spec.build_outputs);
      PutU64(out, n.hash_spec.probe_outputs.size());
      for (const std::string& c : n.hash_spec.probe_outputs) PutStr(out, c);
      PutU8(out, static_cast<u8>(n.hash_spec.kind));
      PutU8(out, n.hash_spec.use_bloom ? 1 : 0);
      PutU64(out, n.hash_spec.build_output_types.size());
      for (PhysicalType t : n.hash_spec.build_output_types) {
        PutU8(out, static_cast<u8>(t));
      }
      break;
    case NodeKind::kMergeJoin:
      PutStr(out, n.merge_spec.left_key);
      PutStr(out, n.merge_spec.right_key);
      PutPairs(out, n.merge_spec.left_outputs);
      PutPairs(out, n.merge_spec.right_outputs);
      break;
    case NodeKind::kGroupBy:
      PutU64(out, n.group_keys.size());
      for (const auto& k : n.group_keys) {
        PutStr(out, k.column);
        PutU64(out, static_cast<u64>(k.bits));
      }
      PutU64(out, n.group_outputs.size());
      for (const std::string& c : n.group_outputs) PutStr(out, c);
      PutU64(out, n.aggs.size());
      for (const auto& a : n.aggs) {
        PutStr(out, a.fn);
        PutExpr(out, a.arg.get());
        PutStr(out, a.out_name);
        PutU8(out, static_cast<u8>(a.type_hint));
        PutU8(out, a.exact_f64_sum ? 1 : 0);
      }
      break;
    case NodeKind::kSort:
    case NodeKind::kLimit:
      PutU64(out, n.sort_keys.size());
      for (const auto& k : n.sort_keys) {
        PutStr(out, k.column);
        PutU8(out, k.desc ? 1 : 0);
      }
      PutU64(out, n.limit);
      break;
    case NodeKind::kSharedScan:
      // The spec's name AND its full subtree at every reference site:
      // a shared scan can never be canon-equal to the inlined subtree
      // (the kind byte differs), so sharing structure is plan identity,
      // yet two refs of the same spec encode identically.
      PutStr(out, n.shared != nullptr ? n.shared->name : "?");
      if (n.shared != nullptr) PutNode(out, *n.shared->root, labels);
      break;
  }
  PutU64(out, n.children.size());
  for (const auto& c : n.children) PutNode(out, *c, labels);
}

void PutPlan(std::string* out, const LogicalPlan& plan) {
  if (!plan.ok()) {
    PutStr(out, "!invalid");
    PutStr(out, plan.status.message());
    return;
  }
  PutStr(out, "plan-v2");
  PutU64(out, plan.shared.size());
  for (const auto& sp : plan.shared) PutStr(out, sp->name);
  PutU64(out, plan.scalars.size());
  for (const ScalarSpec& s : plan.scalars) {
    PutStr(out, s.name);
    PutStr(out, s.column);
    PutU8(out, static_cast<u8>(s.type));
    PutNode(out, *s.root, /*labels=*/true);
  }
  PutNode(out, *plan.root, /*labels=*/true);
}

u64 Fnv1a64(std::string_view bytes) {
  u64 h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

PlanFingerprint FingerprintPlan(const LogicalPlan& plan) {
  PlanFingerprint fp;
  PutPlan(&fp.canon, plan);
  fp.hash = Fnv1a64(fp.canon);
  return fp;
}

std::string SubtreeCanon(const PlanNode& n) {
  std::string out;
  PutNode(&out, n, /*labels=*/false);
  return out;
}

}  // namespace ma::plan
