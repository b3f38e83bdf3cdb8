#include "storage/column.h"

namespace ma {

const void* Column::RawData() const {
  switch (type_) {
    case PhysicalType::kI8:
      return i8s_.data();
    case PhysicalType::kI16:
      return i16s_.data();
    case PhysicalType::kI32:
      return i32s_.data();
    case PhysicalType::kI64:
      return i64s_.data();
    case PhysicalType::kF64:
      return f64s_.data();
    case PhysicalType::kStr:
      return strs_.data();
  }
  return nullptr;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case PhysicalType::kI8:
      i8s_.reserve(n);
      break;
    case PhysicalType::kI16:
      i16s_.reserve(n);
      break;
    case PhysicalType::kI32:
      i32s_.reserve(n);
      break;
    case PhysicalType::kI64:
      i64s_.reserve(n);
      break;
    case PhysicalType::kF64:
      f64s_.reserve(n);
      break;
    case PhysicalType::kStr:
      strs_.reserve(n);
      break;
  }
}

void Column::Resize(size_t n) {
  switch (type_) {
    case PhysicalType::kI8:
      i8s_.resize(n);
      break;
    case PhysicalType::kI16:
      i16s_.resize(n);
      break;
    case PhysicalType::kI32:
      i32s_.resize(n);
      break;
    case PhysicalType::kI64:
      i64s_.resize(n);
      break;
    case PhysicalType::kF64:
      f64s_.resize(n);
      break;
    case PhysicalType::kStr:
      MA_CHECK(false);  // string cells live in the heap; append them
      break;
  }
  size_ = n;
}

}  // namespace ma
