#include "stackroute/io/json.h"

#include <cmath>
#include <cstdio>

#include "stackroute/io/scan.h"
#include "stackroute/util/error.h"

namespace stackroute::io {

namespace {

const char* type_name(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return "bool";
    case JsonValue::Type::kNumber:
      return "number";
    case JsonValue::Type::kString:
      return "string";
    case JsonValue::Type::kArray:
      return "array";
    case JsonValue::Type::kObject:
      return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* want, JsonValue::Type got) {
  throw Error(std::string("expected ") + want + ", got " + type_name(got));
}

/// Recursive-descent parser over a string_view; positions are byte
/// offsets into the original text for error reporting.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  // Nesting bound: the transport's requests are flat; anything deeper is
  // hostile or broken input, and unbounded recursion would be a stack
  // overflow vector on a service binary.
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& msg) const {
    throw JsonParseError{msg, pos_};
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue::string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::null();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue::Object members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return JsonValue::object(std::move(members));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      JsonValue v = parse_value(depth + 1);
      members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::object(std::move(members));
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue::Array items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return JsonValue::array(std::move(items));
    }
    while (true) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::array(std::move(items));
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("truncated \\u escape");
      const char c = peek();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v += static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v += static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v += static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
      ++pos_;
    }
    return v;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Take the run up to the next quote, backslash or control byte in
      // one append.
      const std::size_t run = pos_;
      while (!eof() && peek() != '"' && peek() != '\\' &&
             static_cast<unsigned char>(peek()) >= 0x20) {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (eof()) fail("unterminated string");
      const char c = peek();
      if (c != '\\') {
        if (c != '"') fail("unescaped control character in string");
        ++pos_;
        return out;
      }
      ++pos_;
      if (eof()) fail("truncated escape");
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned cp = parse_hex4();
          // Surrogate pair: D800-DBFF must be followed by \uDC00-\uDFFF.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (!consume_literal("\\u")) fail("unpaired surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    bool digits = false;
    while (!eof() && peek() >= '0' && peek() <= '9') {
      ++pos_;
      digits = true;
    }
    if (!digits) {
      pos_ = start;
      fail("invalid JSON value");
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      bool frac = false;
      while (!eof() && peek() >= '0' && peek() <= '9') {
        ++pos_;
        frac = true;
      }
      if (!frac) fail("digit expected after decimal point");
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      bool exp = false;
      while (!eof() && peek() >= '0' && peek() <= '9') {
        ++pos_;
        exp = true;
      }
      if (!exp) fail("digit expected in exponent");
    }
    // from_chars after our own grammar check: the token is a valid JSON
    // number, so its extra liberties (inf, nan) can't sneak in, and what
    // is left to fail is a value out of double's range.
    double v = 0.0;
    if (!io::parse_number(text_.substr(start, pos_ - start), v)) {
      pos_ = start;
      fail("number out of range");
    }
    return JsonValue::number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return num_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const JsonValue* found = nullptr;  // last duplicate wins
  for (const auto& [k, v] : obj_) {
    if (k == key) found = &v;
  }
  return found;
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

JsonValue JsonValue::null() { return JsonValue(); }

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array(Array a) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.arr_ = std::move(a);
  return v;
}

JsonValue JsonValue::object(Object o) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.obj_ = std::move(o);
  return v;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  SR_REQUIRE(std::isfinite(v),
             "json_number: non-finite values have no JSON representation");
  std::string out;
  append_number(out, v);
  return out;
}

}  // namespace stackroute::io
