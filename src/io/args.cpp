#include "io/args.hpp"

#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace cosmicdance::io {

ArgParser::ArgParser(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  parse(std::move(tokens));
}

ArgParser::ArgParser(std::vector<std::string> tokens) { parse(std::move(tokens)); }

void ArgParser::parse(std::vector<std::string> tokens) {
  std::size_t i = 0;
  while (i < tokens.size()) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) == 0) {
      const std::string name = token.substr(2);
      if (name.empty()) throw ParseError("bare '--' is not a valid option");
      present_[name] = true;
      if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
        values_[name] = tokens[i + 1];
        i += 2;
      } else {
        ++i;
      }
    } else {
      if (command_.empty() && positionals_.empty()) {
        command_ = token;
      } else {
        positionals_.push_back(token);
      }
      ++i;
    }
  }
}

std::optional<std::string> ArgParser::option(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::option_or(const std::string& name,
                                 std::string fallback) const {
  const auto value = option(name);
  return value.has_value() ? *value : std::move(fallback);
}

double ArgParser::number_or(const std::string& name, double fallback) const {
  const auto value = option(name);
  if (!value.has_value()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  // No option means anything by nan, inf or a value past the double range.
  if (end == value->c_str() || *end != '\0' || !std::isfinite(parsed)) {
    throw ParseError("option --" + name + " expects a finite number, got '" +
                     *value + "'");
  }
  return parsed;
}

long ArgParser::integer_or(const std::string& name, long fallback) const {
  const auto value = option(name);
  if (!value.has_value()) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0') {
    throw ParseError("option --" + name + " expects an integer, got '" + *value +
                     "'");
  }
  return parsed;
}

long ArgParser::nonnegative_integer_or(const std::string& name,
                                       long fallback) const {
  const long parsed = integer_or(name, fallback);
  if (parsed < 0) {
    throw ParseError("option --" + name + " expects a non-negative integer, " +
                     "got '" + std::to_string(parsed) + "'");
  }
  return parsed;
}

bool ArgParser::flag(const std::string& name) const {
  return present_.count(name) > 0;
}

void ArgParser::check_known(const std::vector<std::string>& known) const {
  for (const auto& [name, seen] : present_) {
    bool ok = false;
    for (const std::string& candidate : known) {
      if (name == candidate) {
        ok = true;
        break;
      }
    }
    if (!ok) throw ParseError("unknown option --" + name);
  }
}

}  // namespace cosmicdance::io
