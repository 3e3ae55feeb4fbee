#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cloudmedia::expr {

/// Tiny command-line flag parser for the bench/example binaries:
/// accepts `--key=value` and `--key value`; bare `--key` means "true".
/// A flag may repeat (`--grid a=1 --grid b=2`): scalar getters return the
/// last occurrence, get_all() returns every occurrence in order.
/// Unknown positional arguments throw (benches take no positionals) unless
/// the caller opts in, in which case non-flag tokens that were not consumed
/// as a `--key value` value collect into positionals() in order.
class Flags {
 public:
  Flags(int argc, const char* const* argv, bool allow_positionals = false);

  /// Non-flag arguments, in command-line order (opt-in; see constructor).
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// Numeric getters parse the whole value: "abc", "2x" or an out-of-range
  /// value throws util::PreconditionError naming the flag and the value.
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] int get(const std::string& key, int fallback) const;
  [[nodiscard]] long long get_ll(const std::string& key, long long fallback) const;
  /// Any decimal in [0, 2^64 − 1], as a profile's seed: a sign ("-5",
  /// "+5") or a larger value throws instead of wrapping.
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  /// Accepts true/false/1/0/yes/no (a bare `--key` reads "true"); any
  /// other value throws util::PreconditionError naming the flag.
  [[nodiscard]] bool get(const std::string& key, bool fallback) const;
  /// All values given for a repeated flag, in command-line order (empty
  /// when the flag is absent).
  [[nodiscard]] std::vector<std::string> get_all(const std::string& key) const;

  /// Declared-flag registry: throw util::PreconditionError if any parsed
  /// flag is not in `known`. The error names the offending flag, suggests
  /// the closest declared names ("did you mean --hours?") when one is
  /// within edit distance 2, and lists every valid flag. Binaries call
  /// this once, right after construction, so `--warmpu=1` dies with a
  /// teaching message instead of being silently ignored.
  void require_known(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::vector<std::string>> values_;
  std::vector<std::string> positionals_;
};

/// Refuse a flag value outside its range: throws util::PreconditionError
/// "<rule>, got <value>", where `rule` names the flag ("--rate must be >
/// 0 arrivals/s"). Mains print it as `<binary>: <message>` and exit 2.
[[noreturn]] void refuse_value(const std::string& rule, double value);

}  // namespace cloudmedia::expr
