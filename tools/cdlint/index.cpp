#include "index.hpp"

#include <algorithm>
#include <sstream>

#include "textscan.hpp"

namespace cdlint {
namespace {

using textscan::is_ident_char;
using textscan::match_forward;
using textscan::read_ident_at;
using textscan::read_ident_before;
using textscan::skip_ws;
using textscan::split_top_level;
using textscan::starts_with;
using textscan::trim;

const std::set<std::string>& mutex_types() {
  static const std::set<std::string> kTypes{
      "mutex",       "shared_mutex",          "recursive_mutex",
      "timed_mutex", "recursive_timed_mutex", "shared_timed_mutex"};
  return kTypes;
}

const std::set<std::string>& guard_types() {
  static const std::set<std::string> kTypes{"lock_guard", "unique_lock",
                                            "scoped_lock", "shared_lock"};
  return kTypes;
}

// Syscalls and sleeps that can park the calling thread.  `wait` is absent on
// purpose: a condition-variable wait *releases* the lock it is given.
const std::set<std::string>& blocking_callees() {
  static const std::set<std::string> kCalls{
      "read",    "pread",     "readv",   "write",   "pwrite",  "writev",
      "recv",    "recvfrom",  "recvmsg", "send",    "sendto",  "sendmsg",
      "accept",  "accept4",   "poll",    "ppoll",   "select",  "pselect",
      "connect", "sleep",     "usleep",  "nanosleep", "flock", "fsync",
      "fdatasync", "sleep_for", "sleep_until"};
  return kCalls;
}

// Member calls that mutate the receiver.  `add`, `fetch_add` and `store`
// are deliberately absent: commuting atomic bumps are the sanctioned obs
// counter idiom and are exempt from R9 anyway via AtomicDecl.
const std::set<std::string>& mutating_members() {
  static const std::set<std::string> kMembers{
      "push_back", "emplace_back", "push_front", "emplace_front",
      "insert",    "emplace",      "erase",      "clear",
      "resize",    "reserve",      "assign",     "append",
      "pop_back",  "pop_front"};
  return kMembers;
}

// Tokens that can precede an identifier without making it a declaration.
const std::set<std::string>& non_type_keywords() {
  static const std::set<std::string> kWords{
      "return", "throw",  "new",       "delete",   "else",     "do",
      "goto",   "break",  "continue",  "case",     "sizeof",   "co_return",
      "co_yield", "typedef", "using",  "namespace", "operator", "not",
      "and",    "or",     "if",        "while",    "switch",   "for"};
  return kWords;
}

bool is_ident(const std::string& s) {
  if (s.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(s[0])) != 0) return false;
  return std::all_of(s.begin(), s.end(), is_ident_char);
}

/// The declarator name following a complete type spelling that ends at
/// `offset` (just past `>` / the type token): skips `&`, `*`, `const`, and
/// returns the declared identifier, or "" when this is not a declaration.
std::string declarator_after(const std::string& text, std::size_t offset) {
  std::size_t pos = skip_ws(text, offset);
  while (pos < text.size() && (text[pos] == '&' || text[pos] == '*')) {
    pos = skip_ws(text, pos + 1);
  }
  std::string name = read_ident_at(text, pos);
  if (name == "const") {
    pos = skip_ws(text, pos + name.size());
    name = read_ident_at(text, pos);
  }
  if (!is_ident(name)) return {};
  const std::size_t after = skip_ws(text, pos + name.size());
  const char c = after < text.size() ? text[after] : '\0';
  // Declarations terminate or initialize; a ',' keeps multi-declarators and
  // function parameters, '(' / '{' are direct/brace initialization.
  if (c == ';' || c == '=' || c == ',' || c == ')' || c == '{' || c == '(') {
    return name;
  }
  return {};
}

void collect_declarations(const SourceFile& file, FileIndex& out) {
  const std::string& text = file.code_text();
  const std::vector<Token>& tokens = file.tokens();
  for (const Token& token : tokens) {
    if (file.two_chars_before(token) != "::") continue;
    if (mutex_types().count(token.text) > 0) {
      const std::string name =
          declarator_after(text, file.offset_of(token) + token.text.size());
      if (!name.empty()) out.mutexes.push_back({name, token.line});
      continue;
    }
    if (token.text == "atomic" && file.char_after(token) == '<') {
      const std::size_t open =
          skip_ws(text, file.offset_of(token) + token.text.size());
      const std::size_t close = match_forward(text, open, '<', '>');
      if (close == std::string::npos) continue;
      const std::string name = declarator_after(text, close + 1);
      if (!name.empty()) out.atomics.push_back({name, token.line});
      continue;
    }
    if (token.text == "vector" && file.char_after(token) == '<') {
      const std::size_t open =
          skip_ws(text, file.offset_of(token) + token.text.size());
      const std::size_t close = match_forward(text, open, '<', '>');
      if (close == std::string::npos) continue;
      if (trim(text.substr(open + 1, close - open - 1)) != "std::thread") {
        continue;
      }
      const std::string name = declarator_after(text, close + 1);
      if (!name.empty()) out.thread_vectors.push_back({name, token.line});
      continue;
    }
  }
}

void collect_threads(const SourceFile& file, FileIndex& out) {
  const std::string& text = file.code_text();
  const std::vector<Token>& tokens = file.tokens();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.text == "thread" && file.two_chars_before(token) == "::") {
      const std::size_t after_type = file.offset_of(token) + token.text.size();
      const char next = file.char_after(token);
      if (next == '(' || next == '{') {
        // `std::thread(...)` temporary: an immediate .join()/.detach() is a
        // decision; an `x = std::thread(...)` assignment names a target.
        const std::size_t open = skip_ws(text, after_type);
        const std::size_t close =
            match_forward(text, open, text[open], next == '(' ? ')' : '}');
        if (close == std::string::npos) continue;
        if (trim(text.substr(open + 1, close - open - 1)).empty()) {
          continue;  // std::thread() default-construct: no thread yet
        }
        // Look backwards past "std::" for an assignment target.
        std::size_t before = file.offset_of(token);
        if (before >= 5 && text.compare(before - 5, 5, "std::") == 0) {
          before -= 5;
        }
        std::size_t p = before;
        while (p > 0 &&
               std::isspace(static_cast<unsigned char>(text[p - 1])) != 0) {
          --p;
        }
        if (p > 0 && text[p - 1] == '=' && (p < 2 || text[p - 2] != '=') &&
            (p < 2 || std::string("<>!+-*/%&|^").find(text[p - 2]) ==
                          std::string::npos)) {
          const std::string target = read_ident_before(text, p - 1);
          if (is_ident(target)) {
            out.spawns.push_back(
                {target, token.line, file.normalized_raw(token.line)});
            continue;
          }
        }
        std::size_t tail = skip_ws(text, close + 1);
        if (tail < text.size() && text[tail] == '.') {
          const std::string member = read_ident_at(text, tail + 1);
          if (member == "join" || member == "detach") continue;  // decided
        }
        out.spawns.push_back(
            {"<temporary>", token.line, file.normalized_raw(token.line)});
        continue;
      }
      if (is_ident_char(next) || next == '\0') {
        // `std::thread name(...)` / `std::thread name{...}` declaration — a
        // spawn when constructed with arguments, a mere declaration if not.
        const std::size_t name_pos = skip_ws(text, after_type);
        const std::string name = read_ident_at(text, name_pos);
        if (!is_ident(name)) continue;
        const std::size_t open = skip_ws(text, name_pos + name.size());
        const char c = open < text.size() ? text[open] : '\0';
        if (c != '(' && c != '{') continue;
        const std::size_t close =
            match_forward(text, open, c, c == '(' ? ')' : '}');
        if (close == std::string::npos) continue;
        if (trim(text.substr(open + 1, close - open - 1)).empty()) continue;
        out.spawns.push_back(
            {name, token.line, file.normalized_raw(token.line)});
      }
      continue;
    }
    if ((token.text == "join" || token.text == "detach") && i > 0 &&
        file.char_after(token) == '(') {
      const char before = file.char_before(token);
      if (before == '.' || file.two_chars_before(token) == "->") {
        out.joins.push_back({tokens[i - 1].text, token.line});
      }
      continue;
    }
    if ((token.text == "emplace_back" || token.text == "push_back") && i > 0 &&
        file.char_after(token) == '(' && file.char_before(token) == '.') {
      out.pending_spawns.push_back(
          {tokens[i - 1].text, token.line, file.normalized_raw(token.line)});
      continue;
    }
  }

  // Aliases.  Move: `to = std::move(from)` with a lone-identifier argument.
  std::size_t pos = 0;
  while ((pos = text.find("std::move(", pos)) != std::string::npos) {
    const std::size_t open = pos + 9;
    const std::size_t arg = skip_ws(text, open + 1);
    const std::string from = read_ident_at(text, arg);
    const std::size_t after_arg = skip_ws(text, arg + from.size());
    if (is_ident(from) && after_arg < text.size() && text[after_arg] == ')') {
      std::size_t p = pos;
      while (p > 0 &&
             std::isspace(static_cast<unsigned char>(text[p - 1])) != 0) {
        --p;
      }
      if (p > 0 && text[p - 1] == '=' && (p < 2 || text[p - 2] != '=') &&
          (p < 2 || std::string("<>!+-*/%&|^").find(text[p - 2]) ==
                        std::string::npos)) {
        const std::string to = read_ident_before(text, p - 1);
        // Skip member chains (`a.b = ...`): `to` must be a plain name.
        std::size_t lhs_end = p - 1;
        while (lhs_end > 0 &&
               std::isspace(static_cast<unsigned char>(text[lhs_end - 1])) !=
                   0) {
          --lhs_end;
        }
        const std::size_t lhs_begin = lhs_end - to.size();
        const char lhs_before = lhs_begin > 0 ? text[lhs_begin - 1] : '\0';
        if (is_ident(to) && lhs_before != '.' && lhs_before != '>') {
          out.move_aliases.push_back({from, to});
        }
      }
    }
    pos += 10;
  }

  // Range: `for (T& var : range)` with a lone-identifier range expression.
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.text != "for" || file.char_after(token) != '(') continue;
    const std::size_t open =
        skip_ws(text, file.offset_of(token) + token.text.size());
    const std::size_t close = match_forward(text, open, '(', ')');
    if (close == std::string::npos) continue;
    const std::string inside = text.substr(open + 1, close - open - 1);
    // Find a top-level ':' that is not part of '::'.
    int depth = 0;
    std::size_t colon = std::string::npos;
    for (std::size_t k = 0; k < inside.size(); ++k) {
      const char c = inside[k];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      else if (c == ':' && depth == 0) {
        const bool part_of_scope =
            (k + 1 < inside.size() && inside[k + 1] == ':') ||
            (k > 0 && inside[k - 1] == ':');
        if (!part_of_scope) {
          colon = k;
          break;
        }
      }
    }
    if (colon == std::string::npos) continue;
    const std::string var = read_ident_before(inside, colon);
    const std::string range = trim(inside.substr(colon + 1));
    if (is_ident(var) && is_ident(range)) {
      out.range_aliases.push_back({var, range});
    }
  }
}

/// Walks the whole code view once with a brace-depth counter and a stack of
/// held locks, recording lock-graph edges and blocking-while-locked sites.
/// This is a textual scope model: a guard acquired at depth d is considered
/// released when depth drops below d, and a manual `.unlock()` pops its
/// mutex early.  Good enough for the straight-line guard style this tree
/// uses; the corpus pins the expected behaviour.
void collect_locks(const SourceFile& file, FileIndex& out) {
  const std::string& text = file.code_text();
  const std::vector<Token>& tokens = file.tokens();
  struct Held {
    std::string name;
    int depth = 0;
  };
  std::vector<Held> held;
  int depth = 0;
  std::size_t ti = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    while (ti < tokens.size() && file.offset_of(tokens[ti]) < i) ++ti;
    const char c = text[i];
    if (c == '{') {
      ++depth;
      continue;
    }
    if (c == '}') {
      --depth;
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      continue;
    }
    if (ti >= tokens.size() || file.offset_of(tokens[ti]) != i) continue;
    const Token& token = tokens[ti];
    const std::size_t end = i + token.text.size();
    i = end - 1;
    ++ti;

    if (guard_types().count(token.text) > 0 &&
        file.two_chars_before(token) == "::") {
      std::size_t pos = skip_ws(text, end);
      if (pos < text.size() && text[pos] == '<') {
        const std::size_t close = match_forward(text, pos, '<', '>');
        if (close == std::string::npos) continue;
        pos = skip_ws(text, close + 1);
      }
      // Skip the guard variable name to reach its constructor arguments.
      const std::string var = read_ident_at(text, pos);
      pos = skip_ws(text, pos + var.size());
      if (pos >= text.size() || (text[pos] != '(' && text[pos] != '{')) {
        continue;
      }
      const std::size_t close =
          match_forward(text, pos, text[pos], text[pos] == '(' ? ')' : '}');
      if (close == std::string::npos) continue;
      for (const std::string& part :
           split_top_level(text.substr(pos + 1, close - pos - 1))) {
        const std::string arg = trim(part);
        if (arg.empty()) continue;
        const std::string name = read_ident_before(arg, arg.size());
        if (!is_ident(name)) continue;
        if (name == "defer_lock" || name == "adopt_lock" ||
            name == "try_to_lock") {
          continue;
        }
        for (const Held& h : held) {
          out.lock_edges.push_back({h.name, name, token.line,
                                    file.normalized_raw(token.line)});
        }
        held.push_back({name, depth});
      }
      continue;
    }

    const char before = file.char_before(token);
    const bool member_call =
        before == '.' || file.two_chars_before(token) == "->";
    if (token.text == "lock" && member_call && ti >= 2 &&
        file.char_after(token) == '(') {
      const std::string owner = tokens[ti - 2].text;
      for (const Held& h : held) {
        out.lock_edges.push_back(
            {h.name, owner, token.line, file.normalized_raw(token.line)});
      }
      held.push_back({owner, depth});
      continue;
    }
    if (token.text == "unlock" && member_call && ti >= 2 &&
        file.char_after(token) == '(') {
      const std::string owner = tokens[ti - 2].text;
      for (std::size_t k = held.size(); k > 0; --k) {
        if (held[k - 1].name == owner) {
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(k - 1));
          break;
        }
      }
      continue;
    }
    if (blocking_callees().count(token.text) > 0 && !member_call &&
        file.char_after(token) == '(' && !held.empty()) {
      out.blocking_calls.push_back({token.text, held.back().name, token.line,
                                    file.normalized_raw(token.line)});
      continue;
    }
  }
}

void collect_simple_sites(const SourceFile& file, FileIndex& out) {
  const std::vector<Token>& tokens = file.tokens();
  for (const Token& token : tokens) {
    if (token.text == "memory_order_relaxed") {
      out.relaxed_sites.push_back(
          {token.line, file.normalized_raw(token.line)});
      continue;
    }
    if ((token.text == "counter" || token.text == "sched_counter") &&
        file.char_after(token) == '(' &&
        (file.char_before(token) == '.' ||
         file.two_chars_before(token) == "->")) {
      out.counter_regs.push_back({token.line, file.normalized_raw(token.line)});
      continue;
    }
    if (token.text == "counter_or_null" && file.char_after(token) == '(') {
      out.counter_regs.push_back({token.line, file.normalized_raw(token.line)});
      continue;
    }
    if ((token.text == "reduce" || token.text == "transform_reduce") &&
        file.two_chars_before(token) == "::" &&
        file.char_after(token) == '(') {
      out.fp_hazards.push_back(
          {"reduce", token.line, file.normalized_raw(token.line)});
      continue;
    }
    if (token.text == "float") {
      const char after = file.char_after(token);
      if (is_ident_char(after) &&
          std::isdigit(static_cast<unsigned char>(after)) == 0) {
        out.fp_hazards.push_back(
            {"float-accum", token.line, file.normalized_raw(token.line)});
      }
      continue;
    }
  }
  const std::vector<std::string>& lines = file.code_lines();
  for (std::size_t li = 0; li < lines.size(); ++li) {
    std::string lowered = trim(lines[li]);
    std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                   [](unsigned char c) {
                     return static_cast<char>(std::tolower(c));
                   });
    if (lowered.empty() || lowered[0] != '#') continue;
    if (lowered.find("pragma") == std::string::npos) continue;
    if (lowered.find("fast_math") != std::string::npos ||
        lowered.find("fast-math") != std::string::npos ||
        lowered.find("fp_contract") != std::string::npos) {
      out.fp_hazards.push_back(
          {"fast-math", li + 1, file.normalized_raw(li + 1)});
    }
  }
}

/// True when `token` inside a lambda body looks like the *declaration* of a
/// local (so later writes to that name are thread-private).
bool is_local_declaration(const SourceFile& file, const Token& token,
                          const std::string& prev_token_text) {
  const char after = file.char_after(token);
  if (after != ';' && after != '=' && after != ',' && after != ')' &&
      after != '{' && after != ':') {
    return false;
  }
  const char before = file.char_before(token);
  const std::string two = file.two_chars_before(token);
  if (before == '>' && two != "->") return true;  // Foo<Bar> name
  if (before == '&' || before == '*') {
    // Foo& name (declaration) vs &name / *name (expression): a declaration
    // has type-spelling characters before the sigil.
    const char sigil_before = two.size() == 2 ? two[0] : '\0';
    return is_ident_char(sigil_before) || sigil_before == '>';
  }
  if (is_ident_char(before)) {
    return non_type_keywords().count(prev_token_text) == 0;
  }
  return false;
}

void analyze_lambda_body(const SourceFile& file, std::size_t body_open,
                         std::size_t body_close, ParallelSite& site) {
  const std::string& text = file.code_text();
  const std::vector<Token>& tokens = file.tokens();
  std::string prev_text;
  for (const Token& token : tokens) {
    const std::size_t offset = file.offset_of(token);
    if (offset <= body_open) {
      prev_text = token.text;
      continue;
    }
    if (offset >= body_close) break;
    const std::string prev = prev_text;
    prev_text = token.text;

    if (is_local_declaration(file, token, prev)) {
      site.locals.insert(token.text);
      continue;
    }
    // Only *base* names can be captured state: skip members (`x.y`, `p->y`)
    // and qualified names (`obs::f`).
    const char before = file.char_before(token);
    const std::string two = file.two_chars_before(token);
    if (before == '.' || two == "->" || two == "::") continue;

    bool write = false;
    bool subscripted = false;
    if (two == "++" || two == "--") write = true;  // prefix inc/dec
    std::size_t pos = offset + token.text.size();
    while (!write) {
      pos = skip_ws(text, pos);
      if (pos >= text.size() || pos >= body_close) break;
      const char c = text[pos];
      const char n = pos + 1 < text.size() ? text[pos + 1] : '\0';
      if (c == '[') {
        const std::size_t close = match_forward(text, pos, '[', ']');
        if (close == std::string::npos) break;
        subscripted = true;
        pos = close + 1;
        continue;
      }
      if (c == '.' || (c == '-' && n == '>')) {
        pos += c == '.' ? 1 : 2;
        pos = skip_ws(text, pos);
        const std::string member = read_ident_at(text, pos);
        if (member.empty()) break;
        pos += member.size();
        const std::size_t call = skip_ws(text, pos);
        if (call < text.size() && text[call] == '(') {
          write = mutating_members().count(member) > 0;
          break;
        }
        continue;  // data-member chain
      }
      if (c == '=' && n != '=') {
        write = true;
      } else if (n == '=' &&
                 std::string("+-*/%&|^").find(c) != std::string::npos) {
        write = true;
      } else if ((c == '+' && n == '+') || (c == '-' && n == '-')) {
        write = true;
      } else if (c == '<' && n == '<' && pos + 2 < text.size() &&
                 text[pos + 2] == '=') {
        write = true;  // <<=
      } else if (c == '>' && n == '>' && pos + 2 < text.size() &&
                 text[pos + 2] == '=') {
        write = true;  // >>=
      }
      break;
    }
    if (!write) continue;
    const ParallelWrite candidate{token.text, token.line, subscripted,
                                  file.normalized_raw(token.line)};
    const bool duplicate = std::any_of(
        site.writes.begin(), site.writes.end(), [&](const ParallelWrite& w) {
          return w.name == candidate.name && w.line == candidate.line &&
                 w.subscripted == candidate.subscripted;
        });
    if (!duplicate) site.writes.push_back(candidate);
  }
}

void collect_parallel_sites(const SourceFile& file, FileIndex& out) {
  const std::string& text = file.code_text();
  for (const Token& token : file.tokens()) {
    if (token.text != "parallel_for" && token.text != "ordered_map") continue;
    if (file.two_chars_before(token) != "::") continue;
    std::size_t pos = skip_ws(text, file.offset_of(token) + token.text.size());
    if (pos < text.size() && text[pos] == '<') {
      const std::size_t close = match_forward(text, pos, '<', '>');
      if (close == std::string::npos) continue;
      pos = skip_ws(text, close + 1);
    }
    if (pos >= text.size() || text[pos] != '(') continue;
    const std::size_t call_close = match_forward(text, pos, '(', ')');
    if (call_close == std::string::npos) continue;

    ParallelSite site;
    site.callee = token.text;
    site.line = token.line;

    // The body lambda is the first capture list inside the argument extent.
    const std::size_t cap_open = text.find('[', pos);
    if (cap_open == std::string::npos || cap_open > call_close) continue;
    const std::size_t cap_close = match_forward(text, cap_open, '[', ']');
    if (cap_close == std::string::npos) continue;
    for (const std::string& part : split_top_level(
             text.substr(cap_open + 1, cap_close - cap_open - 1))) {
      std::string entry = trim(part);
      if (entry.empty()) continue;
      if (entry == "&") {
        site.capture_default_ref = true;
        continue;
      }
      if (entry == "=" || entry == "this" || entry == "*this") continue;
      const bool by_ref = entry[0] == '&';
      if (by_ref) entry = trim(entry.substr(1));
      const std::size_t eq = entry.find('=');
      if (eq != std::string::npos) entry = trim(entry.substr(0, eq));
      if (!is_ident(entry)) continue;
      if (by_ref) {
        site.ref_captures.insert(entry);
      } else {
        site.value_captures.insert(entry);
      }
    }

    // Lambda parameters are locals.
    std::size_t after_captures = skip_ws(text, cap_close + 1);
    std::size_t body_probe = after_captures;
    if (after_captures < text.size() && text[after_captures] == '(') {
      const std::size_t pclose =
          match_forward(text, after_captures, '(', ')');
      if (pclose == std::string::npos) continue;
      for (const std::string& part : split_top_level(
               text.substr(after_captures + 1, pclose - after_captures - 1))) {
        const std::string param = trim(part);
        if (param.empty()) continue;
        // Drop a default-argument suffix, then take the trailing identifier.
        const std::size_t eq = param.find('=');
        const std::string head =
            eq == std::string::npos ? param : trim(param.substr(0, eq));
        const std::string name = read_ident_before(head, head.size());
        if (is_ident(name)) site.locals.insert(name);
      }
      body_probe = pclose + 1;
    }
    const std::size_t body_open = text.find('{', body_probe);
    if (body_open == std::string::npos || body_open > call_close) continue;
    const std::size_t body_close = match_forward(text, body_open, '{', '}');
    if (body_close == std::string::npos) continue;

    analyze_lambda_body(file, body_open, body_close, site);
    out.parallel_sites.push_back(std::move(site));
  }
}

void collect_allows(const SourceFile& file, FileIndex& out) {
  for (const AllowDirective& allow : file.allows()) {
    if (!allow.has_reason) continue;
    for (const std::string& rule : allow.rules) {
      out.allows.push_back({allow.target_line, rule});
    }
  }
}

void append(std::ostringstream& os, const std::string& record) {
  os << record << '\n';
}

std::string num(std::size_t v) { return std::to_string(v); }

}  // namespace

bool FileIndex::allowed(std::size_t line, const std::string& rule) const {
  return std::any_of(allows.begin(), allows.end(),
                     [&](const AllowRecord& allow) {
                       return allow.line == line && allow.rule == rule;
                     });
}

std::string FileIndex::serialize() const {
  std::ostringstream os;
  append(os, "file\t" + file);
  for (const MutexDecl& d : mutexes) {
    append(os, "mutex\t" + d.name + "\t" + num(d.line));
  }
  for (const AtomicDecl& d : atomics) {
    append(os, "atomic\t" + d.name + "\t" + num(d.line));
  }
  for (const ThreadVectorDecl& d : thread_vectors) {
    append(os, "threadvec\t" + d.name + "\t" + num(d.line));
  }
  for (const ThreadSpawn& s : spawns) {
    append(os, "spawn\t" + s.target + "\t" + num(s.line) + "\t" + s.raw);
  }
  for (const PendingSpawn& s : pending_spawns) {
    append(os, "pend\t" + s.container + "\t" + num(s.line) + "\t" + s.raw);
  }
  for (const JoinSite& j : joins) {
    append(os, "join\t" + j.target + "\t" + num(j.line));
  }
  for (const MoveAlias& a : move_aliases) {
    append(os, "movealias\t" + a.from + "\t" + a.to);
  }
  for (const RangeAlias& a : range_aliases) {
    append(os, "rangealias\t" + a.var + "\t" + a.range);
  }
  for (const LockEdge& e : lock_edges) {
    append(os, "edge\t" + e.held + "\t" + e.acquired + "\t" + num(e.line) +
                   "\t" + e.raw);
  }
  for (const BlockingCall& b : blocking_calls) {
    append(os, "block\t" + b.callee + "\t" + b.held + "\t" + num(b.line) +
                   "\t" + b.raw);
  }
  for (const CounterReg& c : counter_regs) {
    append(os, "counter\t" + num(c.line) + "\t" + c.raw);
  }
  for (const FpHazard& h : fp_hazards) {
    append(os, "fp\t" + h.kind + "\t" + num(h.line) + "\t" + h.raw);
  }
  for (const RelaxedSite& r : relaxed_sites) {
    append(os, "relaxed\t" + num(r.line) + "\t" + r.raw);
  }
  for (const ParallelSite& s : parallel_sites) {
    append(os, "par\t" + s.callee + "\t" + num(s.line) + "\t" +
                   (s.capture_default_ref ? "1" : "0"));
    for (const std::string& name : s.ref_captures) {
      append(os, "parcap\tref\t" + name);
    }
    for (const std::string& name : s.value_captures) {
      append(os, "parcap\tval\t" + name);
    }
    for (const std::string& name : s.locals) {
      append(os, "parlocal\t" + name);
    }
    for (const ParallelWrite& w : s.writes) {
      append(os, "parwrite\t" + w.name + "\t" + num(w.line) + "\t" +
                     (w.subscripted ? "1" : "0") + "\t" + w.raw);
    }
  }
  for (const AllowRecord& a : allows) {
    append(os, "allow\t" + num(a.line) + "\t" + a.rule);
  }
  return os.str();
}

FileIndex build_index(const SourceFile& file) {
  FileIndex out;
  out.file = file.path();
  collect_declarations(file, out);
  collect_threads(file, out);
  collect_locks(file, out);
  collect_simple_sites(file, out);
  collect_parallel_sites(file, out);
  collect_allows(file, out);
  return out;
}

std::string ProjectIndex::serialize() const {
  std::string out;
  for (const FileIndex& file : files) out += file.serialize();
  return out;
}

std::string subsystem_of(const std::string& path) {
  const std::size_t first = path.find('/');
  if (first == std::string::npos) return path;
  const std::size_t second = path.find('/', first + 1);
  if (second == std::string::npos) return path.substr(0, first);
  return path.substr(0, second);
}

}  // namespace cdlint
