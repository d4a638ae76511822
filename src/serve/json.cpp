#include "serve/json.hpp"

#include "io/parse.hpp"

namespace cosmicdance::serve {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run() {
    skip_ws();
    JsonValue value;
    if (!parse_value(value)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool eat_word(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) return false;
        ++depth_;
        const bool ok =
            text_[pos_] == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.text);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return eat_word("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return eat_word("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return eat_word("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (eat(',')) continue;
      return eat('}');
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    for (;;) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.items.push_back(std::move(value));
      skip_ws();
      if (eat(',')) continue;
      return eat(']');
    }
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned long cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // surrogate pair
            if (!eat('\\') || !eat('u')) return false;
            unsigned long low = 0;
            if (!parse_hex4(low) || low < 0xDC00 || low > 0xDFFF) return false;
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return false;  // unpaired low surrogate
          }
          append_utf8(out, cp);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_hex4(unsigned long& out) {
    out = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return false;
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned long>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned long>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned long>(c - 'A' + 10);
      else return false;
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned long cp) {
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

  /// Validates the JSON number grammar but keeps the raw token.
  bool parse_number(JsonValue& out) {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digits()) return false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) return false;
    }
    out.kind = JsonValue::Kind::kNumber;
    out.text = std::string(text_.substr(begin, pos_ - begin));
    return true;
  }

  bool digits() {
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ > begin;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& member : members) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

std::optional<double> JsonValue::number() const {
  if (kind != Kind::kNumber) return std::nullopt;
  return io::parse_double(text);
}

std::optional<long> JsonValue::integer() const {
  if (kind != Kind::kNumber) return std::nullopt;
  return io::parse_long(text);
}

std::optional<JsonValue> parse_json(std::string_view text) {
  return Parser(text).run();
}

}  // namespace cosmicdance::serve
