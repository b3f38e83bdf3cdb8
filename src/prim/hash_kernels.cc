#include "prim/hash_kernels.h"

#include "registry/primitive_dictionary.h"

namespace ma {
namespace hash_detail {

namespace {

/// Linear probe from home bucket `b`: the gid of `key`, inserting it as
/// a new group when absent.
inline u32 FindOrAppend(GroupTable* table, const GroupTable::Slots& s,
                        i64 key, u64 b) {
  for (;;) {
    const u32 gid = s.gids[b];
    if (gid == GroupTable::kEmpty) {
      const u32 fresh = table->AppendGroup(key);
      s.keys[b] = key;
      s.gids[b] = fresh;
      return fresh;
    }
    if (s.keys[b] == key) return gid;
    b = (b + 1) & s.mask;
  }
}

/// Rows the prefetch flavor hashes ahead of its probe.
constexpr size_t kPrefetchDistance = 16;

/// Hashes kPrefetchDistance rows ahead and prefetches those home slots;
/// the find-or-append loop itself stays sequential, so gids come out
/// exactly as the default flavor assigns them.
template <bool SEL>
size_t InsertCheckPrefetchImpl(const PrimCall& c) {
  const i64* keys = static_cast<const i64*>(c.in1);
  u32* out = static_cast<u32*>(c.res);
  auto* table = static_cast<GroupTable*>(c.state);
  const GroupTable::Slots s = table->slots();
  const size_t n = SEL ? c.sel_n : c.n;
  auto row = [&](size_t j) -> sel_t {
    if constexpr (SEL) return c.sel[j];
    return static_cast<sel_t>(j);
  };
  u64 home[kPrefetchDistance] = {};
  auto ahead = [&](size_t j) {
    const u64 b = HashKey(keys[row(j)]) & s.mask;
    home[j % kPrefetchDistance] = b;
    __builtin_prefetch(&s.gids[b], 1);
    __builtin_prefetch(&s.keys[b], 1);
  };
  for (size_t j = 0; j < n && j < kPrefetchDistance; ++j) ahead(j);
  for (size_t j = 0; j < n; ++j) {
    const u64 b = home[j % kPrefetchDistance];
    if (j + kPrefetchDistance < n) ahead(j + kPrefetchDistance);
    const sel_t i = row(j);
    out[i] = FindOrAppend(table, s, keys[i], b);
  }
  return n;
}

}  // namespace

size_t InsertCheck(const PrimCall& c) {
  const i64* keys = static_cast<const i64*>(c.in1);
  u32* out = static_cast<u32*>(c.res);
  auto* table = static_cast<GroupTable*>(c.state);
  const GroupTable::Slots s = table->slots();
  auto one = [&](sel_t i) {
    out[i] = FindOrAppend(table, s, keys[i], HashKey(keys[i]) & s.mask);
  };
  if (c.sel != nullptr) {
    for (size_t j = 0; j < c.sel_n; ++j) one(c.sel[j]);
    return c.sel_n;
  }
  for (size_t i = 0; i < c.n; ++i) one(static_cast<sel_t>(i));
  return c.n;
}

size_t InsertCheckPrefetch(const PrimCall& c) {
  return c.sel != nullptr ? InsertCheckPrefetchImpl<true>(c)
                          : InsertCheckPrefetchImpl<false>(c);
}

size_t Probe(const PrimCall& c) {
  const i64* keys = static_cast<const i64*>(c.in1);
  auto* st = static_cast<ProbeState*>(c.state);
  const JoinHashTable::View v = st->table->view();
  size_t emitted = 0;
  size_t pos = st->cursor.pos;
  u32 chain = st->cursor.chain;
  const size_t limit = (c.sel != nullptr) ? c.sel_n : c.n;

  while (pos < limit) {
    const sel_t i = (c.sel != nullptr) ? c.sel[pos] : static_cast<sel_t>(pos);
    const i64 key = keys[i];
    if (chain == JoinHashTable::kNil) {
      chain = v.heads[HashKey(key) & v.mask];
    }
    while (chain != JoinHashTable::kNil) {
      const u32 e = chain;
      chain = v.next[e];
      if (v.keys[e] == key) {
        if (emitted == st->out_capacity) {
          // Output full: remember that entry `e` matched but has not been
          // emitted — re-test it on resume by rewinding the chain to e.
          st->cursor.pos = pos;
          st->cursor.chain = e;
          st->cursor.done = false;
          return emitted;
        }
        st->out_probe_pos[emitted] = i;
        st->out_build_row[emitted] = v.rows[e];
        ++emitted;
      }
    }
    ++pos;
    chain = JoinHashTable::kNil;
  }
  st->cursor.pos = pos;
  st->cursor.chain = JoinHashTable::kNil;
  st->cursor.done = true;
  return emitted;
}

}  // namespace hash_detail

void RegisterHashKernels(PrimitiveDictionary* dict) {
  using namespace hash_detail;
  MA_CHECK(dict->Register("map_hash_i64_col",
                          FlavorInfo{"default", FlavorSetId::kDefault,
                                     &MapHash<true>},
                          /*is_default=*/true)
               .ok());
  MA_CHECK(dict->Register("map_hash_i64_col",
                          FlavorInfo{"nounroll", FlavorSetId::kUnroll,
                                     &MapHash<false>})
               .ok());
  MA_CHECK(dict->Register("ht_insertcheck_i64_col",
                          FlavorInfo{"default", FlavorSetId::kDefault,
                                     &InsertCheck},
                          /*is_default=*/true)
               .ok());
  MA_CHECK(dict->Register("ht_insertcheck_i64_col",
                          FlavorInfo{"prefetch", FlavorSetId::kFission,
                                     &InsertCheckPrefetch})
               .ok());
  MA_CHECK(dict->Register("ht_probe_i64_col",
                          FlavorInfo{"default", FlavorSetId::kDefault,
                                     &Probe},
                          /*is_default=*/true)
               .ok());
  MA_CHECK(dict->Register("ht_semijoin_i64_col",
                          FlavorInfo{"branching", FlavorSetId::kDefault,
                                     &SelExists<true, true>},
                          /*is_default=*/true)
               .ok());
  MA_CHECK(dict->Register("ht_semijoin_i64_col",
                          FlavorInfo{"nobranching", FlavorSetId::kBranch,
                                     &SelExists<true, false>})
               .ok());
  MA_CHECK(dict->Register("ht_antijoin_i64_col",
                          FlavorInfo{"branching", FlavorSetId::kDefault,
                                     &SelExists<false, true>},
                          /*is_default=*/true)
               .ok());
  MA_CHECK(dict->Register("ht_antijoin_i64_col",
                          FlavorInfo{"nobranching", FlavorSetId::kBranch,
                                     &SelExists<false, false>})
               .ok());
}

}  // namespace ma
