// Two-phase, key-partitioned merge of hash-aggregation partials (the
// merge of Leis et al., "Morsel-Driven Parallelism", SIGMOD'14).
//
// Phase 1 — per-worker pre-aggregation into one HashAggOperator each —
// happens elsewhere. Phase 2 lives here:
//
//   KeyPartitions  scatters every partial's (packed key, gid) entries
//                  into P partitions by the high bits of the global key
//                  span, and sorts each partition by (key, partial).
//   PartialMerger  folds one sorted partition into result rows: one row
//                  per distinct key, combining the partials' accumulators
//                  in partial (= worker) order.
//
// Partitions are contiguous key ranges in ascending order, so emitting
// them one after another *is* packed-key order: the merged table comes
// out in exactly the order a serial key-sorted aggregation emits, with
// no global sort. Every step runs per table or per partition, so a
// parallel caller spreads each over its workers; the serial
// HashAggOperator runs the same steps as the one-partial case to get
// its key-sorted emission order.
#ifndef MA_EXEC_AGG_MERGE_H_
#define MA_EXEC_AGG_MERGE_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/op_hash_agg.h"
#include "prim/hash_table.h"
#include "storage/table.h"

namespace ma {

/// One pre-aggregated group: its packed key, the partial that holds it
/// and its dense group id there.
struct GroupRef {
  i64 key;
  u32 part;
  u32 gid;
};

class KeyPartitions {
 public:
  /// Plans the partitioning of every group of `tables` (one per partial,
  /// in partial order). The partition count is derived from the total
  /// group count and `workers`: enough partitions that each one's sort
  /// fits in cache and every worker has several to claim.
  KeyPartitions(std::vector<const GroupTable*> tables, int workers);

  size_t num_tables() const { return tables_.size(); }
  size_t num_partitions() const { return num_partitions_; }
  /// Bytes of the scatter buffer.
  u64 buffer_bytes() const { return num_entries_ * sizeof(GroupRef); }

  // The steps, in order. Calls of one step for distinct tables (or
  // partitions) may run concurrently; a step starts once every call of
  // the one before has returned.

  /// 1. Counts table `t`'s groups per partition.
  void Count(size_t t);
  /// 2. Lays the partitions out back to back; within each, the tables'
  /// entries follow in table order.
  void Layout();
  /// 3. Scatters table `t`'s groups into their partitions.
  void Scatter(size_t t);
  /// 4. Sorts partition `p` by (key, partial) in place; `scratch` is a
  /// reusable sort buffer.
  void Sort(size_t p, std::vector<GroupRef>* scratch);

  /// Partition `p`'s entries, [begin(p), end(p)).
  const GroupRef* begin(size_t p) const {
    return entries_.get() + part_begin_[p];
  }
  const GroupRef* end(size_t p) const {
    return entries_.get() + part_begin_[p + 1];
  }

  /// The one-partial case, all steps inline: `table`'s gids in
  /// ascending key order.
  static void KeySortedGids(const GroupTable& table, std::vector<u32>* out);

 private:
  size_t PartitionOf(i64 key) const {
    return static_cast<size_t>(
        (static_cast<u64>(key) - static_cast<u64>(min_key_)) >> shift_);
  }

  std::vector<const GroupTable*> tables_;
  i64 min_key_ = 0;
  int shift_ = 0;
  size_t num_partitions_ = 0;
  size_t num_entries_ = 0;
  /// Per table: its group count per partition (Count), then its next
  /// write position per partition (Layout, Scatter).
  std::vector<std::vector<size_t>> cursor_;
  /// Partition p occupies [part_begin_[p], part_begin_[p + 1]).
  std::vector<size_t> part_begin_;
  std::unique_ptr<GroupRef[]> entries_;
};

class PartialMerger {
 public:
  /// `parts` in worker order. Each aggregate's accumulator kind is
  /// settled across them: a partial typed from real input beats one
  /// that fell back to the AggSpec type_hint (a worker starved by
  /// stealing drains nothing, and its hint may disagree with what the
  /// busy workers saw; its differently-typed accumulators hold no data,
  /// so the fold skips them without losing anything).
  PartialMerger(std::vector<HashAggOperator::Partial> parts,
                const std::vector<std::string>& group_outputs);

  /// Number of distinct keys in the sorted entries [b, e): the rows
  /// Fold writes for them.
  static size_t CountKeys(const GroupRef* b, const GroupRef* e);

  /// The merged table with `rows` rows: group outputs, then one column
  /// per aggregate. Fixed-width columns are sized for Fold to fill;
  /// string columns stay empty until AppendStrings.
  std::unique_ptr<Table> NewTable(size_t rows) const;

  /// String group-output cells of one Fold call, one column per group
  /// output (null for the fixed-width ones).
  using StringCells = std::vector<std::unique_ptr<Column>>;

  /// Folds the sorted entries [b, e) into rows [row0, row0 +
  /// CountKeys(b, e)) of `out` (a NewTable); string cells go to
  /// `strings` instead. Group outputs come from the first partial
  /// holding the key: these columns are functionally dependent on the
  /// key, so any partial's copy is the same value. Exact (fixed-point)
  /// f64 sums fold in i128, so their totals do not depend on how rows
  /// were split; the single rounding to f64 happens here. Calls for
  /// disjoint row ranges may run concurrently.
  void Fold(const GroupRef* b, const GroupRef* e, size_t row0, Table* out,
            StringCells* strings) const;

  /// Appends one Fold call's string cells to `out`. Call once per Fold,
  /// in row order.
  void AppendStrings(const StringCells& strings, Table* out) const;

 private:
  struct AggKind {
    bool is_float = false;
    bool exact = false;
  };

  std::vector<HashAggOperator::Partial> parts_;
  std::vector<std::string> group_outputs_;
  std::vector<PhysicalType> group_output_types_;
  std::vector<AggKind> kinds_;
};

}  // namespace ma

#endif  // MA_EXEC_AGG_MERGE_H_
