// Canonical plan fingerprints for the plan cache (knowledge/plan_cache.h).
// FingerprintPlan walks the LogicalPlan DAG and emits a canonical byte
// string (`canon`) covering every field that affects compilation: node
// kinds, labels, full expression trees, join/aggregation/sort specs, and
// — for scans — the table's IDENTITY (pointer), name, and full column
// schema. Including the schema makes the fingerprint a catalog-version
// check: AddColumn on a table changes every fingerprint that scans it,
// so stale cached stage-DAGs can never be replayed against an evolved
// schema. Including the pointer makes distinct table objects distinct
// even when structurally identical (their data differs); the flip side
// is that a cache keyed on these fingerprints requires tables to outlive
// it (see docs/ADAPTIVITY.md).
//
// `hash` is FNV-1a-64 over `canon` and is only a bucket index; equality
// ALWAYS compares the full canon bytes, so a hash collision costs a
// cache miss, never a wrong plan.
#ifndef MA_PLAN_PLAN_FINGERPRINT_H_
#define MA_PLAN_PLAN_FINGERPRINT_H_

#include <string>

#include "plan/logical_plan.h"

namespace ma::plan {

struct PlanFingerprint {
  u64 hash = 0;
  std::string canon;

  bool operator==(const PlanFingerprint& o) const {
    return hash == o.hash && canon == o.canon;
  }
  bool operator!=(const PlanFingerprint& o) const { return !(*this == o); }
};

/// Canonical fingerprint of `plan` (root + scalar subqueries + shared
/// subplans). Invalid or empty plans get a distinctive canon and are
/// never cache-equal to a valid plan. A kSharedScan leaf encodes its
/// spec's full subtree at every reference site, so a plan that shares
/// a subtree via BindShared and a plan that builds the same subtree
/// twice inline get DIFFERENT canons — sharing structure is part of
/// plan identity (the plan cache must not conflate them: they compile
/// to different stage DAGs).
PlanFingerprint FingerprintPlan(const LogicalPlan& plan);

/// Canonical bytes of the subtree rooted at `n` with LABELS OMITTED and
/// table pointers included — the key the compiler's automatic CSE uses
/// to detect structurally identical subtrees. Labels are display-only
/// prefixes for primitive-instance names (the same pipeline built twice
/// under "q2/min" and "q2" must still merge); table pointers keep
/// same-shaped subtrees over different tables apart.
std::string SubtreeCanon(const PlanNode& n);

}  // namespace ma::plan

#endif  // MA_PLAN_PLAN_FINGERPRINT_H_
