#include "exec/agg_merge.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "exec/append.h"
#include "prim/aggr_kernels.h"

namespace ma {
namespace {

/// Entries per partition that one L2-resident sort handles (256 KiB of
/// GroupRefs).
constexpr size_t kCacheEntries = 16384;
/// Below this many entries a partition is not worth a claim of its own.
constexpr size_t kMinEntries = 1024;
constexpr int kMaxPartitionBits = 10;
/// Partitions this small sort by comparison; larger ones by radix, in
/// digits of kRadixBits.
constexpr size_t kRadixMinEntries = 256;
constexpr int kRadixBits = 11;
constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;

using Partial = HashAggOperator::Partial;

int BitWidth(u64 v) { return v == 0 ? 0 : 64 - __builtin_clzll(v); }

/// Folds `acc` (one accumulator array per partial) over each run of
/// equal keys into out[r]: run r is refs[runs[r], runs[r + 1]), combined
/// in partial order starting from `init`. A partial whose array does
/// not cover the gid holds a differently-typed accumulator and no data;
/// it is skipped.
template <typename T, typename Op>
void FoldRuns(const GroupRef* refs, const std::vector<u32>& runs,
              const std::vector<const std::vector<T>*>& acc, T init, Op op,
              T* out) {
  for (size_t r = 0; r + 1 < runs.size(); ++r) {
    T v = init;
    for (u32 i = runs[r]; i < runs[r + 1]; ++i) {
      const std::vector<T>& a = *acc[refs[i].part];
      if (refs[i].gid < a.size()) v = op(v, a[refs[i].gid]);
    }
    out[r] = v;
  }
}

/// Aggregate `a`'s accumulator array `member` of every partial.
template <typename T>
std::vector<const std::vector<T>*> Accs(
    const std::vector<Partial>& parts, size_t a,
    const std::vector<T>* Partial::Agg::*member) {
  std::vector<const std::vector<T>*> out;
  for (const Partial& p : parts) out.push_back(p.aggs[a].*member);
  return out;
}

}  // namespace

KeyPartitions::KeyPartitions(std::vector<const GroupTable*> tables,
                             int workers)
    : tables_(std::move(tables)) {
  i64 max_key = std::numeric_limits<i64>::min();
  min_key_ = std::numeric_limits<i64>::max();
  for (const GroupTable* t : tables_) {
    if (t->num_groups() == 0) continue;
    min_key_ = std::min(min_key_, t->min_key());
    max_key = std::max(max_key, t->max_key());
    num_entries_ += t->num_groups();
  }
  part_begin_.assign(1, 0);
  cursor_.resize(tables_.size());
  if (num_entries_ == 0) return;
  size_t want = num_entries_ / kCacheEntries;
  if (workers > 1) {
    want = std::max(want, std::min<size_t>(4 * static_cast<size_t>(workers),
                                           num_entries_ / kMinEntries));
  }
  int pbits = 0;
  while ((size_t{1} << pbits) < want && pbits < kMaxPartitionBits) ++pbits;
  // Partition = the top pbits bits of the key's offset into the span,
  // so partition order is key order.
  const u64 span = static_cast<u64>(max_key) - static_cast<u64>(min_key_);
  shift_ = std::max(BitWidth(span) - pbits, 0);
  num_partitions_ = static_cast<size_t>(span >> shift_) + 1;
  for (std::vector<size_t>& cursor : cursor_) {
    cursor.assign(num_partitions_, 0);
  }
  // Uninitialized: Scatter writes every entry exactly once, so the
  // pages are first touched by the scattering workers.
  entries_.reset(new GroupRef[num_entries_]);
}

void KeyPartitions::Count(size_t t) {
  const GroupTable& table = *tables_[t];
  std::vector<size_t>& count = cursor_[t];
  for (u32 g = 0; g < table.num_groups(); ++g) {
    ++count[PartitionOf(table.KeyOfGroup(g))];
  }
}

void KeyPartitions::Layout() {
  part_begin_.assign(num_partitions_ + 1, 0);
  size_t pos = 0;
  for (size_t p = 0; p < num_partitions_; ++p) {
    part_begin_[p] = pos;
    for (std::vector<size_t>& cursor : cursor_) {
      const size_t count = cursor[p];
      cursor[p] = pos;
      pos += count;
    }
  }
  part_begin_[num_partitions_] = pos;
}

void KeyPartitions::Scatter(size_t t) {
  const GroupTable& table = *tables_[t];
  std::vector<size_t>& cursor = cursor_[t];
  for (u32 g = 0; g < table.num_groups(); ++g) {
    const i64 key = table.KeyOfGroup(g);
    entries_[cursor[PartitionOf(key)]++] =
        GroupRef{key, static_cast<u32>(t), g};
  }
}

void KeyPartitions::Sort(size_t p, std::vector<GroupRef>* scratch) {
  GroupRef* const first = entries_.get() + part_begin_[p];
  const size_t n = part_begin_[p + 1] - part_begin_[p];
  if (n < kRadixMinEntries) {
    std::sort(first, first + n, [](const GroupRef& a, const GroupRef& b) {
      return a.key != b.key ? a.key < b.key : a.part < b.part;
    });
    return;
  }
  // Stable LSD radix sort over the offset bits that vary within the
  // partition, one pass per kRadixBits-wide digit that starts at a
  // varying bit. Layout puts the entries in table order, and stability
  // keeps equal keys in that order: the result is sorted by (key,
  // partial).
  auto offset = [this](const GroupRef& r) {
    return static_cast<u64>(r.key) - static_cast<u64>(min_key_);
  };
  const u64 lead = offset(first[0]);
  u64 varying = 0;
  for (size_t i = 0; i < n; ++i) varying |= offset(first[i]) ^ lead;
  scratch->resize(n);
  GroupRef* src = first;
  GroupRef* dst = scratch->data();
  size_t count[kRadixBuckets + 1] = {};
  for (int lo = 0; lo < 64 && (varying >> lo) != 0; lo += kRadixBits) {
    lo += __builtin_ctzll(varying >> lo);
    auto digit = [&](const GroupRef& r) {
      return static_cast<size_t>((offset(r) >> lo) & (kRadixBuckets - 1));
    };
    std::fill(count, count + kRadixBuckets + 1, 0);
    for (size_t i = 0; i < n; ++i) ++count[digit(src[i]) + 1];
    for (size_t d = 0; d < kRadixBuckets; ++d) count[d + 1] += count[d];
    for (size_t i = 0; i < n; ++i) dst[count[digit(src[i])]++] = src[i];
    std::swap(src, dst);
  }
  if (src != first) std::memcpy(first, src, n * sizeof(GroupRef));
}

void KeyPartitions::KeySortedGids(const GroupTable& table,
                                  std::vector<u32>* out) {
  KeyPartitions kp({&table}, /*workers=*/1);
  out->clear();
  out->reserve(table.num_groups());
  if (kp.num_partitions() == 0) return;
  kp.Count(0);
  kp.Layout();
  kp.Scatter(0);
  std::vector<GroupRef> scratch;
  for (size_t p = 0; p < kp.num_partitions(); ++p) {
    kp.Sort(p, &scratch);
    for (const GroupRef* r = kp.begin(p); r != kp.end(p); ++r) {
      out->push_back(r->gid);
    }
  }
}

PartialMerger::PartialMerger(std::vector<Partial> parts,
                             const std::vector<std::string>& group_outputs)
    : parts_(std::move(parts)), group_outputs_(group_outputs) {
  MA_CHECK(!parts_.empty());
  for (size_t g = 0; g < group_outputs_.size(); ++g) {
    PhysicalType type = PhysicalType::kI64;
    for (const Partial& part : parts_) {
      if (g < part.group_out_cols->size()) {
        type = (*part.group_out_cols)[g]->type();
        break;
      }
    }
    group_output_types_.push_back(type);
  }
  for (size_t a = 0; a < parts_[0].aggs.size(); ++a) {
    AggKind k{parts_[0].aggs[a].is_float, parts_[0].aggs[a].exact};
    for (const Partial& part : parts_) {
      if (part.aggs[a].typed_from_data) {
        k = AggKind{part.aggs[a].is_float, part.aggs[a].exact};
        break;
      }
    }
    kinds_.push_back(k);
  }
}

size_t PartialMerger::CountKeys(const GroupRef* b, const GroupRef* e) {
  size_t keys = 0;
  for (const GroupRef* r = b; r != e; ++r) {
    keys += r == b || r->key != r[-1].key;
  }
  return keys;
}

std::unique_ptr<Table> PartialMerger::NewTable(size_t rows) const {
  auto t = std::make_unique<Table>("result");
  for (size_t g = 0; g < group_outputs_.size(); ++g) {
    Column* col = t->AddColumn(group_outputs_[g], group_output_types_[g]);
    if (col->type() != PhysicalType::kStr) col->Resize(rows);
  }
  for (size_t a = 0; a < kinds_.size(); ++a) {
    const Partial::Agg& pa = parts_[0].aggs[a];
    const bool f64_out = *pa.fn == "avg" || kinds_[a].is_float;
    t->AddColumn(*pa.out_name,
                 f64_out ? PhysicalType::kF64 : PhysicalType::kI64)
        ->Resize(rows);
  }
  t->set_row_count(rows);
  return t;
}

void PartialMerger::Fold(const GroupRef* b, const GroupRef* e, size_t row0,
                         Table* out, StringCells* strings) const {
  // Row r folds b[runs[r], runs[r + 1]).
  std::vector<u32> runs;
  for (const GroupRef* r = b; r != e; ++r) {
    if (r == b || r->key != r[-1].key) runs.push_back(r - b);
  }
  runs.push_back(static_cast<u32>(e - b));
  const size_t rows = runs.size() - 1;
  size_t col = 0;

  // Group outputs from each key's first holder; consecutive rows owned
  // by one partial move as one gather.
  strings->resize(group_outputs_.size());
  std::vector<sel_t> sel;
  for (size_t g = 0; g < group_outputs_.size(); ++g) {
    Column* dst = out->mutable_column(col++);
    const bool is_str = group_output_types_[g] == PhysicalType::kStr;
    if (is_str) (*strings)[g] = std::make_unique<Column>(PhysicalType::kStr);
    for (size_t r = 0; r < rows;) {
      const size_t run_row = r;
      const u32 p = b[runs[r]].part;
      sel.clear();
      for (; r < rows && b[runs[r]].part == p; ++r) {
        sel.push_back(b[runs[r]].gid);
      }
      const auto& cols = *parts_[p].group_out_cols;
      MA_CHECK(g < cols.size());
      if (is_str) {
        AppendGatherColumn(*cols[g], sel.data(), sel.size(),
                           (*strings)[g].get());
        continue;
      }
      ForPhysicalType(dst->type(), [&](auto tag) {
        using T = decltype(tag);
        if constexpr (!std::is_same_v<T, StrRef>) {
          const T* src = cols[g]->Data<T>();
          T* d = dst->MutableData<T>() + row0 + run_row;
          for (size_t j = 0; j < sel.size(); ++j) d[j] = src[sel[j]];
        }
      });
    }
  }

  const auto add = [](auto x, auto y) { return x + y; };
  for (size_t a = 0; a < kinds_.size(); ++a) {
    Column* dst = out->mutable_column(col++);
    const std::string& fn = *parts_[0].aggs[a].fn;
    const AggKind k = kinds_[a];
    // The sum of a float aggregate (sum, or avg's numerator).
    auto float_sums = [&](f64* d) {
      if (k.exact) {
        std::vector<i128> fx(rows);
        FoldRuns<i128>(b, runs, Accs(parts_, a, &Partial::Agg::acc_fx), 0,
                       add, fx.data());
        for (size_t r = 0; r < rows; ++r) d[r] = FixToF64(fx[r]);
      } else {
        FoldRuns<f64>(b, runs, Accs(parts_, a, &Partial::Agg::acc_f), 0.0,
                      add, d);
      }
    };
    auto int_fold = [&](i64 init, auto op, i64* d) {
      FoldRuns<i64>(b, runs, Accs(parts_, a, &Partial::Agg::acc_i), init, op,
                    d);
    };
    if (fn == "avg") {
      f64* d = dst->MutableData<f64>() + row0;
      if (k.is_float) {
        float_sums(d);
      } else {
        std::vector<i64> sums(rows);
        int_fold(0, add, sums.data());
        for (size_t r = 0; r < rows; ++r) d[r] = static_cast<f64>(sums[r]);
      }
      std::vector<i64> counts(rows);
      FoldRuns<i64>(b, runs, Accs(parts_, a, &Partial::Agg::count), 0, add,
                    counts.data());
      for (size_t r = 0; r < rows; ++r) {
        d[r] = counts[r] == 0 ? 0.0 : d[r] / counts[r];
      }
    } else if (fn == "min" || fn == "max") {
      const bool is_min = fn == "min";
      if (k.is_float) {
        const f64 inf = std::numeric_limits<f64>::infinity();
        FoldRuns<f64>(b, runs, Accs(parts_, a, &Partial::Agg::acc_f),
                      is_min ? inf : -inf,
                      is_min ? +[](f64 x, f64 y) { return std::min(x, y); }
                             : +[](f64 x, f64 y) { return std::max(x, y); },
                      dst->MutableData<f64>() + row0);
      } else {
        int_fold(is_min ? std::numeric_limits<i64>::max()
                        : std::numeric_limits<i64>::min(),
                 is_min ? +[](i64 x, i64 y) { return std::min(x, y); }
                        : +[](i64 x, i64 y) { return std::max(x, y); },
                 dst->MutableData<i64>() + row0);
      }
    } else if (k.is_float) {  // sum
      float_sums(dst->MutableData<f64>() + row0);
    } else {  // sum, count
      int_fold(0, add, dst->MutableData<i64>() + row0);
    }
  }
}

void PartialMerger::AppendStrings(const StringCells& strings,
                                  Table* out) const {
  for (size_t g = 0; g < strings.size(); ++g) {
    if (strings[g] != nullptr) {
      AppendColumnRows(*strings[g], out->mutable_column(g));
    }
  }
}

}  // namespace ma
