#include "exec/append.h"

namespace ma {
namespace {

/// Gather-appends the `sel` cells of `data`, a dense array of type `t`.
void GatherCells(PhysicalType t, const void* data, const sel_t* sel,
                 size_t n, Column* dst) {
  ForPhysicalType(t, [&](auto tag) {
    using T = decltype(tag);
    const T* src = static_cast<const T*>(data);
    if constexpr (std::is_same_v<T, StrRef>) {
      dst->AppendStringGather(src, sel, n);
    } else {
      dst->AppendGather<T>(src, sel, n);
    }
  });
}

}  // namespace

void AppendLive(const Vector& src, const Batch& batch, Column* dst) {
  const size_t n = batch.row_count();
  ForPhysicalType(src.type(), [&](auto tag) {
    using T = decltype(tag);
    if constexpr (std::is_same_v<T, StrRef>) {
      const StrRef* d = src.Data<StrRef>();
      if (batch.has_sel()) {
        const SelVector& sel = batch.sel();
        for (size_t j = 0; j < sel.size(); ++j) {
          dst->AppendString(d[sel[j]].view());
        }
      } else {
        for (size_t i = 0; i < n; ++i) dst->AppendString(d[i].view());
      }
    } else {
      const T* d = src.Data<T>();
      if (batch.has_sel()) {
        const SelVector& sel = batch.sel();
        dst->AppendGather<T>(d, sel.data(), sel.size());
      } else {
        dst->AppendBulk<T>(d, n);
      }
    }
  });
}

void AppendColumnRows(const Column& src, Column* dst) {
  const size_t n = src.size();
  ForPhysicalType(src.type(), [&](auto tag) {
    using T = decltype(tag);
    if constexpr (std::is_same_v<T, StrRef>) {
      for (size_t i = 0; i < n; ++i) {
        dst->AppendString(src.Data<StrRef>()[i].view());
      }
    } else {
      dst->AppendBulk<T>(src.Data<T>(), n);
    }
  });
}

void AppendCell(const Column& src, size_t row, Column* dst) {
  ForPhysicalType(src.type(), [&](auto tag) {
    using T = decltype(tag);
    if constexpr (std::is_same_v<T, StrRef>) {
      dst->AppendString(src.Get<StrRef>(row).view());
    } else {
      dst->Append<T>(src.Get<T>(row));
    }
  });
}

void AppendGatherColumn(const Column& src, const sel_t* sel, size_t n,
                        Column* dst) {
  GatherCells(src.type(), src.RawData(), sel, n, dst);
}

void AppendDefault(Column* dst) {
  ForPhysicalType(dst->type(), [&](auto tag) {
    using T = decltype(tag);
    if constexpr (std::is_same_v<T, StrRef>) {
      dst->AppendString("");
    } else {
      dst->Append<T>(T{});
    }
  });
}

u64 ApproxBatchBytes(const Batch& batch) {
  const size_t live = batch.live_count();
  u64 bytes = 0;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const Vector& v = batch.column(c);
    bytes += static_cast<u64>(live) * TypeWidth(v.type());
    if (v.type() != PhysicalType::kStr) continue;
    const StrRef* strs = v.Data<StrRef>();
    if (batch.has_sel()) {
      const SelVector& sel = batch.sel();
      for (size_t i = 0; i < sel.size(); ++i) bytes += strs[sel[i]].len;
    } else {
      for (size_t i = 0; i < batch.row_count(); ++i) bytes += strs[i].len;
    }
  }
  return bytes;
}

void AppendGatherVector(const Vector& src, const sel_t* sel, size_t n,
                        Column* dst) {
  GatherCells(src.type(), src.raw_data(), sel, n, dst);
}

}  // namespace ma
