// In-memory columnar storage. A Column owns the full data of one
// attribute; scans hand out raw pointers into it, vector-at-a-time.
#ifndef MA_STORAGE_COLUMN_H_
#define MA_STORAGE_COLUMN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/string_heap.h"
#include "common/types.h"

namespace ma {

class Column {
 public:
  explicit Column(PhysicalType type) : type_(type) {}

  PhysicalType type() const { return type_; }
  size_t size() const { return size_; }

  template <typename T>
  void Append(T v) {
    MA_CHECK(TypeTag<T>::value == type_);
    Storage<T>().push_back(v);
    ++size_;
  }

  /// Appends a string by copying it into the column's heap.
  void AppendString(std::string_view s) {
    MA_CHECK(type_ == PhysicalType::kStr);
    strs_.push_back(heap_.Add(s));
    ++size_;
  }

  /// Bulk append of `n` contiguous values (one type check, memcpy-able).
  template <typename T>
  void AppendBulk(const T* src, size_t n) {
    MA_CHECK(TypeTag<T>::value == type_);
    auto& s = Storage<T>();
    s.insert(s.end(), src, src + n);
    size_ += n;
  }

  /// Bulk gather-append of strings at `sel` positions: payloads move
  /// into this column's heap as one contiguous block (see
  /// StringHeap::AddGather) instead of one heap interaction per row.
  void AppendStringGather(const StrRef* src, const sel_t* sel, size_t n) {
    MA_CHECK(type_ == PhysicalType::kStr);
    heap_.AddGather(src, sel, n, &strs_);
    size_ += n;
  }

  /// Bulk gather-append of values at `sel` positions.
  template <typename T>
  void AppendGather(const T* src, const sel_t* sel, size_t n) {
    MA_CHECK(TypeTag<T>::value == type_);
    auto& s = Storage<T>();
    const size_t base = s.size();
    s.resize(base + n);
    for (size_t j = 0; j < n; ++j) s[base + j] = src[sel[j]];
    size_ += n;
  }

  template <typename T>
  const T* Data() const {
    MA_CHECK(TypeTag<T>::value == type_);
    return const_cast<Column*>(this)->Storage<T>().data();
  }

  /// Writable cells, for filling a column sized by Resize().
  template <typename T>
  T* MutableData() {
    MA_CHECK(TypeTag<T>::value == type_);
    return Storage<T>().data();
  }

  const void* RawData() const;

  template <typename T>
  T Get(size_t i) const {
    MA_CHECK(i < size_);
    return Data<T>()[i];
  }

  void Reserve(size_t n);

  /// Sizes a fixed-width column to `n` cells, new ones zero. Callers
  /// then fill disjoint cell ranges through MutableData(), possibly from
  /// several threads at once.
  void Resize(size_t n);

 private:
  template <typename T>
  std::vector<T>& Storage();

  PhysicalType type_;
  size_t size_ = 0;
  std::vector<i8> i8s_;
  std::vector<i16> i16s_;
  std::vector<i32> i32s_;
  std::vector<i64> i64s_;
  std::vector<f64> f64s_;
  std::vector<StrRef> strs_;
  StringHeap heap_;
};

template <>
inline std::vector<i8>& Column::Storage<i8>() {
  return i8s_;
}
template <>
inline std::vector<i16>& Column::Storage<i16>() {
  return i16s_;
}
template <>
inline std::vector<i32>& Column::Storage<i32>() {
  return i32s_;
}
template <>
inline std::vector<i64>& Column::Storage<i64>() {
  return i64s_;
}
template <>
inline std::vector<f64>& Column::Storage<f64>() {
  return f64s_;
}
template <>
inline std::vector<StrRef>& Column::Storage<StrRef>() {
  return strs_;
}

}  // namespace ma

#endif  // MA_STORAGE_COLUMN_H_
