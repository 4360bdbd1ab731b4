#include "src/common/json_parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "src/common/strings.h"

namespace maya {

JsonValue::JsonValue(JsonArray a)
    : type_(Type::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}

JsonValue::JsonValue(JsonObject o)
    : type_(Type::kObject), object_(std::make_shared<JsonObject>(std::move(o))) {}

bool JsonValue::AsBool() const {
  CHECK(type_ == Type::kBool);
  return bool_;
}

double JsonValue::AsDouble() const {
  CHECK(type_ == Type::kNumber);
  switch (rep_) {
    case NumberRep::kInt:
      return static_cast<double>(int_);
    case NumberRep::kUint:
      return static_cast<double>(uint_);
    case NumberRep::kDouble:
      break;
  }
  return number_;
}

int64_t JsonValue::AsInt() const {
  const Result<int64_t> value = ToInt(*this);
  CHECK(value.ok()) << value.status().ToString();
  return *value;
}

uint64_t JsonValue::AsUint() const {
  const Result<uint64_t> value = ToUint(*this);
  CHECK(value.ok()) << value.status().ToString();
  return *value;
}

const std::string& JsonValue::AsString() const {
  CHECK(type_ == Type::kString);
  return string_;
}

const JsonArray& JsonValue::AsArray() const {
  CHECK(type_ == Type::kArray);
  return *array_;
}

const JsonObject& JsonValue::AsObject() const {
  CHECK(type_ == Type::kObject);
  return *object_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonObject& obj = AsObject();
  auto it = obj.find(key);
  CHECK(it != obj.end()) << "missing JSON key '" << key << "'";
  return it->second;
}

bool JsonValue::Has(const std::string& key) const {
  return is_object() && AsObject().count(key) > 0;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    MAYA_RETURN_IF_ERROR(ParseValue(value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(StrFormat("JSON parse error at offset %zu: %s", pos_,
                                             what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t len = 0;
    while (literal[len] != '\0') {
      ++len;
    }
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue& out) {
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string s;
        MAYA_RETURN_IF_ERROR(ParseString(s));
        out = JsonValue(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          out = JsonValue(true);
          return Status::Ok();
        }
        return Error("bad literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          out = JsonValue(false);
          return Status::Ok();
        }
        return Error("bad literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          out = JsonValue();
          return Status::Ok();
        }
        return Error("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue& out) {
    CHECK(Consume('{'));
    JsonObject obj;
    SkipWhitespace();
    if (Consume('}')) {
      out = JsonValue(std::move(obj));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      MAYA_RETURN_IF_ERROR(ParseString(key));
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':'");
      }
      SkipWhitespace();
      JsonValue value;
      MAYA_RETURN_IF_ERROR(ParseValue(value));
      obj.emplace(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        break;
      }
      return Error("expected ',' or '}'");
    }
    out = JsonValue(std::move(obj));
    return Status::Ok();
  }

  Status ParseArray(JsonValue& out) {
    CHECK(Consume('['));
    JsonArray arr;
    SkipWhitespace();
    if (Consume(']')) {
      out = JsonValue(std::move(arr));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      JsonValue value;
      MAYA_RETURN_IF_ERROR(ParseValue(value));
      arr.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        break;
      }
      return Error("expected ',' or ']'");
    }
    out = JsonValue(std::move(arr));
    return Status::Ok();
  }

  Status ParseString(std::string& out) {
    if (!Consume('"')) {
      return Error("expected string");
    }
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return Status::Ok();
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return Error("bad escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("bad \\u escape");
          }
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit");
            }
          }
          if (code > 0xFF) {
            return Error("\\u escapes above 0xFF unsupported");
          }
          out += static_cast<char>(code);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  // One pass per token: an integral token ("-?[0-9]+") that fits 64 bits is
  // accumulated exactly; anything else (fraction, exponent, overflow, "-0",
  // whose sign only a double keeps) goes to strtod once.
  Status ParseNumber(JsonValue& out) {
    const size_t start = pos_;
    const bool negative = Consume('-');
    bool integral = pos_ < text_.size() && IsDigit(text_[pos_]);
    uint64_t magnitude = 0;
    for (; pos_ < text_.size() && IsDigit(text_[pos_]); ++pos_) {
      const unsigned digit = static_cast<unsigned>(text_[pos_] - '0');
      if (magnitude > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
        integral = false;
      }
      magnitude = magnitude * 10 + digit;
    }
    for (; pos_ < text_.size() && (IsDigit(text_[pos_]) || text_[pos_] == '.' ||
                                   text_[pos_] == 'e' || text_[pos_] == 'E' ||
                                   text_[pos_] == '+' || text_[pos_] == '-');
         ++pos_) {
      integral = false;
    }
    if (pos_ == start) {
      return Error("expected value");
    }
    if (integral && !negative) {
      out = JsonValue(magnitude);
      return Status::Ok();
    }
    if (integral && magnitude != 0 && magnitude <= uint64_t{1} << 63) {
      out = JsonValue(static_cast<int64_t>(0 - magnitude));
      return Status::Ok();
    }
    // strtod reads the NUL-terminated text in place; it must stop exactly
    // at the token's end.
    char* end = nullptr;
    const double value = std::strtod(text_.c_str() + start, &end);
    if (end != text_.c_str() + pos_) {
      return Error("bad number '" + text_.substr(start, pos_ - start) + "'");
    }
    out = JsonValue(value);
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) { return Parser(text).Parse(); }

Status RequireKeys(const JsonValue& value, std::initializer_list<const char*> keys) {
  if (!value.is_object()) {
    return Status::InvalidArgument("expected JSON object");
  }
  for (const char* key : keys) {
    if (!value.Has(key)) {
      return Status::InvalidArgument(std::string("missing key '") + key + "'");
    }
  }
  return Status::Ok();
}

Result<bool> ToBool(const JsonValue& value) {
  if (value.type() != JsonValue::Type::kBool) {
    return Status::InvalidArgument("expected JSON boolean");
  }
  return value.AsBool();
}

Result<double> ToNumber(const JsonValue& value) {
  if (value.type() != JsonValue::Type::kNumber) {
    return Status::InvalidArgument("expected JSON number");
  }
  return value.AsDouble();
}

Result<int64_t> ToInt(const JsonValue& value) {
  if (value.type() != JsonValue::Type::kNumber) {
    return Status::InvalidArgument("expected JSON number");
  }
  switch (value.rep_) {
    case JsonValue::NumberRep::kInt:
      return value.int_;
    case JsonValue::NumberRep::kUint:
      if (value.uint_ <= static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
        return static_cast<int64_t>(value.uint_);
      }
      break;
    case JsonValue::NumberRep::kDouble:
      // [-2^63, 2^63); NaN fails both comparisons.
      if (value.number_ >= -0x1p63 && value.number_ < 0x1p63) {
        return static_cast<int64_t>(std::llround(value.number_));
      }
      break;
  }
  return Status::InvalidArgument("JSON number outside the int64 range");
}

Result<uint64_t> ToUint(const JsonValue& value) {
  if (value.type() != JsonValue::Type::kNumber) {
    return Status::InvalidArgument("expected non-negative JSON number");
  }
  switch (value.rep_) {
    case JsonValue::NumberRep::kInt:
      if (value.int_ >= 0) {
        return static_cast<uint64_t>(value.int_);
      }
      break;
    case JsonValue::NumberRep::kUint:
      return value.uint_;
    case JsonValue::NumberRep::kDouble:
      if (value.number_ >= 0.0 && value.number_ < 0x1p64) {
        return static_cast<uint64_t>(std::round(value.number_));
      }
      break;
  }
  return Status::InvalidArgument("expected non-negative JSON number within the uint64 range");
}

Result<std::string> ToString(const JsonValue& value) {
  if (value.type() != JsonValue::Type::kString) {
    return Status::InvalidArgument("expected JSON string");
  }
  return value.AsString();
}

Result<const JsonArray*> ToArray(const JsonValue& value) {
  if (!value.is_array()) {
    return Status::InvalidArgument("expected JSON array");
  }
  return &value.AsArray();
}

}  // namespace maya
