#include "storage/codec.h"

#include <cmath>

#include "predicate/operators.h"

namespace ncps::storage {

void write_value(Writer& w, const Value& v) {
  w.u8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::Int64:
      w.u64(static_cast<std::uint64_t>(v.as_int()));
      break;
    case ValueType::Float64:
      w.f64(v.as_double());
      break;
    case ValueType::String:
      w.string(v.as_string());
      break;
    case ValueType::Bool:
      w.u8(v.as_bool() ? 1 : 0);
      break;
  }
}

Value read_value(Reader& r) {
  const std::uint8_t tag = r.u8();
  switch (static_cast<ValueType>(tag)) {
    case ValueType::Int64:
      return Value(static_cast<std::int64_t>(r.u64()));
    case ValueType::Float64:
      return Value(r.f64());
    case ValueType::String:
      return Value(r.string());
    case ValueType::Bool:
      return Value(r.u8() != 0);
  }
  throw StorageError("unknown value type tag " + std::to_string(tag));
}

void write_predicate(Writer& w, const Predicate& p) {
  w.varint(p.attribute.value());
  w.u8(static_cast<std::uint8_t>(p.op));
  write_value(w, p.lo);
  if (is_binary_operand(p.op)) write_value(w, p.hi);
}

Predicate read_predicate(Reader& r,
                         std::span<const AttributeId> attr_remap) {
  if (attr_remap.empty()) {
    throw StorageError("predicate but empty attribute dictionary");
  }
  const std::uint64_t attr =
      r.varint_max(attr_remap.size() - 1, "predicate attribute id");
  const std::uint8_t op_raw = r.u8();
  if (op_raw >= kOperatorCount) {
    throw StorageError("unknown operator tag " + std::to_string(op_raw));
  }
  Predicate p;
  p.attribute = attr_remap[attr];
  p.op = static_cast<Operator>(op_raw);
  p.lo = read_value(r);
  if (is_binary_operand(p.op)) p.hi = read_value(r);
  // The parser never yields a NaN operand, and the phase-1 index cannot
  // order one: it would be stabbed alongside an unrelated bound.
  for (const Value* v : {&p.lo, &p.hi}) {
    if (v->type() == ValueType::Float64 && std::isnan(v->as_double())) {
      throw StorageError("NaN predicate operand");
    }
  }
  return p;
}

}  // namespace ncps::storage
