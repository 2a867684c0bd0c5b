#ifndef QAMARKET_OBS_JSON_H_
#define QAMARKET_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/status.h"

namespace qa::obs {

/// A minimal JSON document model for the telemetry layer: the JSONL trace
/// writer, the metrics stream and the qa_trace parser all speak through this
/// one type, so what the Recorder writes is exactly what the tools read.
///
/// Integers and doubles are kept distinct (JSON itself does not) so that
/// counters survive a write -> parse round trip bit-exactly; doubles are
/// printed with round-trip precision.
class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion-ordered object: a trace record has few keys and their order
  /// is part of the written format, which keeps traces diffable.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}  // NOLINT(runtime/explicit)
  Json(bool b) : value_(b) {}                // NOLINT(runtime/explicit)
  Json(int v) : value_(static_cast<int64_t>(v)) {}     // NOLINT
  Json(int64_t v) : value_(v) {}                       // NOLINT
  Json(uint64_t v) : value_(static_cast<int64_t>(v)) {}  // NOLINT
  Json(double v) : value_(v) {}                        // NOLINT
  Json(const char* s) : value_(std::string(s)) {}      // NOLINT
  Json(std::string s) : value_(std::move(s)) {}        // NOLINT
  Json(Array a) : value_(std::move(a)) {}              // NOLINT
  Json(Object o) : value_(std::move(o)) {}             // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Numeric coercions (int <-> double), with a fallback for wrong types.
  int64_t AsInt(int64_t fallback = 0) const;
  double AsDouble(double fallback = 0.0) const;
  bool AsBool(bool fallback = false) const;
  const std::string& AsString(const std::string& fallback = EmptyString()) const;

  const Array& array() const { return std::get<Array>(value_); }
  const Object& object() const { return std::get<Object>(value_); }

  /// Object lookup; nullptr when absent (or when this is not an object).
  const Json* Find(std::string_view key) const;

  /// Typed object getters: Find + coercion + fallback in one step.
  int64_t GetInt(std::string_view key, int64_t fallback = 0) const;
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  std::string GetString(std::string_view key,
                        const std::string& fallback = "") const;

  /// Appends (or overwrites) `key` on an object; converts null to object.
  void Set(std::string key, Json value);
  /// Appends to an array; converts null to array.
  void Append(Json value);

  static Json MakeObject() { return Json(Object{}); }
  static Json MakeArray() { return Json(Array{}); }

  bool operator==(const Json& other) const { return value_ == other.value_; }

  /// Compact single-line rendering (what the JSONL sink writes).
  std::string Dump() const;
  void DumpTo(std::string& out) const;

  /// Parses one JSON document; trailing whitespace is permitted, trailing
  /// garbage is an error.
  static util::StatusOr<Json> Parse(std::string_view text);

 private:
  static const std::string& EmptyString();

  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      value_;
};

}  // namespace qa::obs

#endif  // QAMARKET_OBS_JSON_H_
