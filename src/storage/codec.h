// Value/Predicate wire codecs shared by snapshot and journal payloads.
//
// Predicates are written with the *writer's* attribute ids; attribute ids
// are registry-assignment order, which a recovering process need not
// reproduce (its registry may have interned other names first). Snapshot
// payloads therefore carry an attribute-name dictionary, and
// read_predicate() remaps every attribute through it.
#pragma once

#include <span>

#include "event/value.h"
#include "predicate/predicate.h"
#include "storage/serializer.h"

namespace ncps::storage {

void write_value(Writer& w, const Value& v);
[[nodiscard]] Value read_value(Reader& r);

void write_predicate(Writer& w, const Predicate& p);
/// `attr_remap` maps the writer's attribute id values to this process's
/// AttributeIds (built by interning the snapshot's attribute dictionary).
/// Throws StorageError on unknown operators, attribute ids outside the
/// dictionary, or NaN operands.
[[nodiscard]] Predicate read_predicate(Reader& r,
                                       std::span<const AttributeId> attr_remap);

}  // namespace ncps::storage
