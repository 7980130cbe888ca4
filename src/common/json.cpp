#include "src/common/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/types.hpp"

namespace rtlb {

Json& Json::set(std::string key, Json value) & {
  RTLB_CHECK(is_object(), "Json::set on a non-object");
  Members& members = std::get<Members>(value_);
  for (auto& [existing_key, existing_value] : members) {
    if (existing_key == key) {  // upsert: an object has one value per key
      existing_value = std::move(value);
      return *this;
    }
  }
  members.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json Json::set(std::string key, Json value) && {
  set(std::move(key), std::move(value));  // *this is an lvalue here
  return std::move(*this);
}

Json& Json::push(Json value) {
  RTLB_CHECK(is_array(), "Json::push on a non-array");
  std::get<Elements>(value_).push_back(std::move(value));
  return *this;
}

void Json::escape_to(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  // Characters that need no escape are copied a whole run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s, run);
  out += '"';
}

namespace {

/// Pretty-printing line break: a newline plus `width` spaces.
void newline_to(std::string& out, std::size_t width) {
  out += '\n';
  out.append(width, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const std::size_t inner = pretty ? static_cast<std::size_t>(indent) * (depth + 1) : 0;
  const std::size_t outer = pretty ? static_cast<std::size_t>(indent) * depth : 0;

  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (const bool* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const std::int64_t* n = std::get_if<std::int64_t>(&value_)) {
    char buf[24];
    const auto result = std::to_chars(buf, buf + sizeof buf, *n);
    out.append(buf, result.ptr);
  } else if (const double* d = std::get_if<double>(&value_)) {
    if (std::isfinite(*d)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.10g", *d);
      out += buf;
    } else {
      out += "null";  // JSON has no Inf/NaN
    }
  } else if (const std::string* s = std::get_if<std::string>(&value_)) {
    escape_to(out, *s);
  } else if (const Members* m = std::get_if<Members>(&value_)) {
    if (m->empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, value] : *m) {
      if (!first) out += ',';
      first = false;
      if (pretty) newline_to(out, inner);
      escape_to(out, key);
      out += pretty ? ": " : ":";
      value.dump_to(out, indent, depth + 1);
    }
    if (pretty) newline_to(out, outer);
    out += '}';
  } else if (const Elements* e = std::get_if<Elements>(&value_)) {
    if (e->empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const Json& value : *e) {
      if (!first) out += ',';
      first = false;
      if (pretty) newline_to(out, inner);
      value.dump_to(out, indent, depth + 1);
    }
    if (pretty) newline_to(out, outer);
    out += ']';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

bool Json::as_bool() const {
  RTLB_CHECK(is_bool(), "Json::as_bool on a non-bool");
  return std::get<bool>(value_);
}

std::int64_t Json::as_int() const {
  RTLB_CHECK(is_int(), "Json::as_int on a non-integer");
  return std::get<std::int64_t>(value_);
}

double Json::as_double() const {
  if (const std::int64_t* n = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*n);
  }
  RTLB_CHECK(is_double(), "Json::as_double on a non-number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  RTLB_CHECK(is_string(), "Json::as_string on a non-string");
  return std::get<std::string>(value_);
}

const Json* Json::find(std::string_view key) const {
  const Members* m = std::get_if<Members>(&value_);
  if (m == nullptr) return nullptr;
  for (const auto& [k, v] : *m) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Json::size() const {
  if (const Members* m = std::get_if<Members>(&value_)) return m->size();
  if (const Elements* e = std::get_if<Elements>(&value_)) return e->size();
  RTLB_CHECK(false, "Json::size on a non-container");
  return 0;
}

const Json& Json::at(std::size_t i) const {
  RTLB_CHECK(is_array(), "Json::at on a non-array");
  const Elements& e = std::get<Elements>(value_);
  RTLB_CHECK(i < e.size(), "Json::at out of range");
  return e[i];
}

const std::pair<std::string, Json>& Json::member(std::size_t i) const {
  RTLB_CHECK(is_object(), "Json::member on a non-object");
  const Members& m = std::get<Members>(value_);
  RTLB_CHECK(i < m.size(), "Json::member out of range");
  return m[i];
}

// Recursive-descent parser over a string_view. Depth is counted per
// object/array and capped so hostile "[[[[..." input fails with a
// JsonParseError before the call stack does.
//
// A container's children are collected on a stack shared by the whole
// parse (one for array elements, one for object members); when the
// container closes, its children are moved into a vector allocated once at
// the exact count, and the stack shrinks back. The stacks keep their
// capacity, so a document costs one allocation per container instead of a
// regrowth series per container.
class Json::Parser {
 public:
  Parser(std::string_view text, const JsonParseOptions& options)
      : text_(text), max_depth_(options.max_depth) {}

  Json run() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonParseError("JSON parse error at offset " + std::to_string(pos_) +
                         ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(std::size_t depth) {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object(std::size_t depth) {
    if (depth >= max_depth_) {
      fail("nesting depth exceeds limit of " + std::to_string(max_depth_));
    }
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json::object();
    }
    const std::size_t base = members_.size();
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      Json value = parse_value(depth + 1);
      add_member(base, std::move(key), std::move(value));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    const auto first = members_.begin() + static_cast<std::ptrdiff_t>(base);
    Json obj;
    obj.value_ = Members(std::make_move_iterator(first), std::make_move_iterator(members_.end()));
    members_.erase(first, members_.end());
    return obj;
  }

  /// Json::set's upsert over the open object's members: a repeated key
  /// keeps its first position and takes the last value.
  void add_member(std::size_t base, std::string key, Json value) {
    for (std::size_t k = base; k < members_.size(); ++k) {
      if (members_[k].first == key) {
        members_[k].second = std::move(value);
        return;
      }
    }
    members_.emplace_back(std::move(key), std::move(value));
  }

  Json parse_array(std::size_t depth) {
    if (depth >= max_depth_) {
      fail("nesting depth exceeds limit of " + std::to_string(max_depth_));
    }
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json::array();
    }
    const std::size_t base = elements_.size();
    while (true) {
      Json value = parse_value(depth + 1);
      elements_.push_back(std::move(value));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    const auto first = elements_.begin() + static_cast<std::ptrdiff_t>(base);
    Json arr;
    arr.value_ = Elements(std::make_move_iterator(first), std::make_move_iterator(elements_.end()));
    elements_.erase(first, elements_.end());
    return arr;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run of plain characters up to the next quote, backslash
      // or control character in one append.
      std::size_t end = pos_;
      while (end < text_.size()) {
        const auto u = static_cast<unsigned char>(text_[end]);
        if (u == '"' || u == '\\' || u < 0x20) break;
        ++end;
      }
      out.append(text_, pos_, end - pos_);
      pos_ = end;
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("invalid escape character");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  void append_codepoint(std::string& out, unsigned cp) {
    // Surrogate pair: a high surrogate must be followed by "\uDC00".."\uDFFF".
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const unsigned lo = parse_hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("unpaired high surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      pos_ = start;
      fail("invalid value");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero must stand alone
      if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        fail("leading zero in number");
      }
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digit required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digit required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (integral) {
      std::int64_t v = 0;
      const auto [end, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, v);
      if (ec == std::errc() && end == text_.data() + pos_) return Json(v);
      // Out of int64 range: fall through to double like most parsers do.
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("invalid number");
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t max_depth_;
  std::vector<Json> elements_;                         // open arrays' children
  std::vector<std::pair<std::string, Json>> members_;  // open objects' children
};

Json Json::parse(std::string_view text, const JsonParseOptions& options) {
  return Parser(text, options).run();
}

}  // namespace rtlb
