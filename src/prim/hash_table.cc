#include "prim/hash_table.h"

namespace ma {

GroupTable::GroupTable(size_t initial_buckets) {
  size_t b = 16;
  while (b < initial_buckets) b <<= 1;
  slot_keys_.assign(b, 0);
  slot_gids_.assign(b, kEmpty);
  mask_ = b - 1;
}

void GroupTable::EnsureRoom(size_t n) {
  const size_t buckets = mask_ + 1;
  if ((used_ + n) * 10 >= buckets * 6) {  // keep load factor under 60%
    size_t nb = buckets;
    while ((used_ + n) * 10 >= nb * 6) nb <<= 1;
    Rehash(nb);
  }
}

void GroupTable::Rehash(size_t new_buckets) {
  std::vector<i64> old_keys(new_buckets, 0);
  std::vector<u32> old_gids(new_buckets, kEmpty);
  old_keys.swap(slot_keys_);
  old_gids.swap(slot_gids_);
  mask_ = new_buckets - 1;
  // Re-insert in old slot order, not gid order: old home buckets ascend,
  // so after a doubling the new home buckets ascend too and the writes
  // stream through the new arrays instead of missing cache per key.
  // Gids are carried over unchanged.
  for (size_t s = 0; s < old_gids.size(); ++s) {
    const u32 gid = old_gids[s];
    if (gid == kEmpty) continue;
    const i64 key = old_keys[s];
    u64 b = HashKey(key) & mask_;
    while (slot_gids_[b] != kEmpty) b = (b + 1) & mask_;
    slot_keys_[b] = key;
    slot_gids_[b] = gid;
  }
}

u32 GroupTable::FindOrInsert(i64 key) {
  EnsureRoom(1);
  u64 b = HashKey(key) & mask_;
  while (slot_gids_[b] != kEmpty) {
    if (slot_keys_[b] == key) return slot_gids_[b];
    b = (b + 1) & mask_;
  }
  const u32 gid = AppendGroup(key);
  slot_keys_[b] = key;
  slot_gids_[b] = gid;
  return gid;
}

i64 GroupTable::Find(i64 key) const {
  u64 b = HashKey(key) & mask_;
  while (slot_gids_[b] != kEmpty) {
    if (slot_keys_[b] == key) return slot_gids_[b];
    b = (b + 1) & mask_;
  }
  return -1;
}

void GroupTable::Clear() {
  slot_keys_.assign(slot_keys_.size(), 0);
  slot_gids_.assign(slot_gids_.size(), kEmpty);
  used_ = 0;
  keys_by_gid_.clear();
  min_key_ = std::numeric_limits<i64>::max();
  max_key_ = std::numeric_limits<i64>::min();
}

void JoinHashTable::Append(const i64* keys, size_t n, const sel_t* sel,
                           size_t sel_n, u64 row0) {
  MA_CHECK(!finalized_);
  if (sel != nullptr) {
    for (size_t j = 0; j < sel_n; ++j) {
      const sel_t i = sel[j];
      keys_.push_back(keys[i]);
      rows_.push_back(row0 + i);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      keys_.push_back(keys[i]);
      rows_.push_back(row0 + i);
    }
  }
}

void JoinHashTable::Finalize() {
  MA_CHECK(!finalized_);
  size_t b = 16;
  while (b < keys_.size() * 2) b <<= 1;
  heads_.assign(b, kNil);
  next_.assign(keys_.size(), kNil);
  mask_ = b - 1;
  for (size_t i = 0; i < keys_.size(); ++i) {
    const u64 bucket = HashKey(keys_[i]) & mask_;
    next_[i] = heads_[bucket];
    heads_[bucket] = static_cast<u32>(i);
  }
  finalized_ = true;
}

std::vector<u64> JoinHashTable::Lookup(i64 key) const {
  MA_CHECK(finalized_);
  std::vector<u64> out;
  u32 e = heads_[HashKey(key) & mask_];
  while (e != kNil) {
    if (keys_[e] == key) out.push_back(rows_[e]);
    e = next_[e];
  }
  return out;
}

}  // namespace ma
