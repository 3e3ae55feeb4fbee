#include "expr/flags.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <system_error>
#include <type_traits>

#include "util/check.h"
#include "util/json.h"

namespace cloudmedia::expr {

namespace {

/// Plain Levenshtein distance, O(|a|*|b|); flag names are short.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

/// Parse the whole token, so "2x" and "abc" fail naming the flag instead
/// of reading as 2 or escaping as a bare std::invalid_argument.
template <typename T>
T parse_whole(const std::string& key, const std::string& value) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error == std::errc() && stop == end) return parsed;
  const char* kind = std::is_floating_point_v<T> ? "a number"
                     : std::is_signed_v<T>         ? "an integer"
                                                   : "an unsigned integer";
  throw util::PreconditionError("--" + key + " expects " + kind + ", got '" +
                                value + "'");
}

}  // namespace

Flags::Flags(int argc, const char* const* argv, bool allow_positionals) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (!allow_positionals) {
        throw std::invalid_argument("unexpected positional argument: " + arg);
      }
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)].push_back(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg].push_back(argv[++i]);
    } else {
      values_[arg].push_back("true");
    }
  }
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second.back();
}

double Flags::get(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_whole<double>(key, it->second.back());
}

int Flags::get(const std::string& key, int fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_whole<int>(key, it->second.back());
}

long long Flags::get_ll(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_whole<long long>(key, it->second.back());
}

std::uint64_t Flags::get_u64(const std::string& key,
                             std::uint64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_whole<std::uint64_t>(key, it->second.back());
}

bool Flags::get(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second.back();
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw util::PreconditionError("--" + key +
                                " expects true/false/1/0/yes/no, got '" +
                                value + "'");
}

std::vector<std::string> Flags::get_all(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::vector<std::string>{} : it->second;
}

void Flags::require_known(const std::vector<std::string>& known) const {
  for (const auto& [key, unused] : values_) {
    (void)unused;
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string message = "unknown flag --" + key;
    // Suggest close declared names first; a typo is the common case.
    std::vector<std::string> close;
    for (const std::string& candidate : known) {
      if (edit_distance(key, candidate) <= 2) close.push_back(candidate);
    }
    if (!close.empty()) {
      message += " — did you mean ";
      for (std::size_t i = 0; i < close.size(); ++i) {
        if (i > 0) message += close.size() == 2 ? " or " : ", ";
        message += "--" + close[i];
      }
      message += "?";
    }
    message += " (valid flags:";
    for (const std::string& candidate : known) message += " --" + candidate;
    message += ")";
    throw util::PreconditionError(message);
  }
}

void refuse_value(const std::string& rule, double value) {
  std::string message = rule;
  message += ", got ";
  message += util::format_number(value);
  throw util::PreconditionError(message);
}

}  // namespace cloudmedia::expr
