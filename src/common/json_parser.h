// Minimal recursive-descent JSON parser (DOM). Complements JsonWriter for
// round-tripping trace files; supports the full JSON grammar except \uXXXX
// surrogate pairs (escapes decode to code points <= 0xFF). Integral number
// tokens that fit 64 bits are kept exact (forest seeds and request ids use
// all 64); every other number is the double strtod returns.
#ifndef SRC_COMMON_JSON_PARSER_H_
#define SRC_COMMON_JSON_PARSER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace maya {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double d) : type_(Type::kNumber), number_(d) {}
  explicit JsonValue(int64_t i) : type_(Type::kNumber), rep_(NumberRep::kInt), int_(i) {}
  explicit JsonValue(uint64_t u) : type_(Type::kNumber), rep_(NumberRep::kUint), uint_(u) {}
  explicit JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a);
  explicit JsonValue(JsonObject o);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  // Typed accessors CHECK the type. AsDouble of an integral number is the
  // nearest double, as strtod would round it; AsInt/AsUint also CHECK that
  // the value fits (see ToInt/ToUint).
  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt() const;
  uint64_t AsUint() const;
  const std::string& AsString() const;
  const JsonArray& AsArray() const;
  const JsonObject& AsObject() const;

  // Object field lookup; CHECK-fails if absent or wrong container type.
  const JsonValue& at(const std::string& key) const;
  bool Has(const std::string& key) const;

 private:
  friend Result<int64_t> ToInt(const JsonValue& value);
  friend Result<uint64_t> ToUint(const JsonValue& value);

  // How a kNumber is held: integral tokens exactly, everything else as a
  // double.
  enum class NumberRep : uint8_t { kDouble, kInt, kUint };

  Type type_;
  bool bool_ = false;
  NumberRep rep_ = NumberRep::kDouble;  // fits in bool_'s padding
  union {
    double number_ = 0.0;
    int64_t int_;
    uint64_t uint_;
  };
  std::string string_;
  std::shared_ptr<JsonArray> array_;    // shared: JsonValue stays copyable
  std::shared_ptr<JsonObject> object_;
};

// Exact integers cost no space: the representation tag sits in padding.
static_assert(sizeof(JsonValue) == 2 * sizeof(double) + sizeof(std::string) +
                                       2 * sizeof(std::shared_ptr<JsonArray>));

Result<JsonValue> ParseJson(const std::string& text);

// InvalidArgument unless `value` is an object containing every key — the
// strict-parsing precondition shared by the trace/estimator/service codecs.
Status RequireKeys(const JsonValue& value, std::initializer_list<const char*> keys);

// Non-aborting typed conversions for untrusted input (wire payloads): the
// member accessors above CHECK-fail on type mismatch, which is correct for
// trusted in-repo data but would let one malformed client request abort a
// multi-tenant server. These return InvalidArgument instead.
Result<bool> ToBool(const JsonValue& value);
Result<double> ToNumber(const JsonValue& value);
// Integral numbers convert exactly, others round to nearest; a value outside
// the target type's range is InvalidArgument.
Result<int64_t> ToInt(const JsonValue& value);
Result<uint64_t> ToUint(const JsonValue& value);
Result<std::string> ToString(const JsonValue& value);
// Borrowed pointer into `value`; valid while `value` lives.
Result<const JsonArray*> ToArray(const JsonValue& value);

}  // namespace maya

#endif  // SRC_COMMON_JSON_PARSER_H_
