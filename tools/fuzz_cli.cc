// tool_fuzz — throw seeded random experiment profiles at the simulator
// and check the contracts that must hold for EVERY valid profile:
//
//   conservation — arrivals == departures + viewers still present;
//   budget       — billed $/h never exceeds the timeline's budget envelope;
//   quality      — every quality sample is finite and in [0, 1];
//   determinism  — 1-thread and N-thread runs serialize byte-identically.
//
//   tool_fuzz --runs=25 --seed=1 [--threads=<hardware>] [--out=results/fuzz]
//
// Profiles are composed from the live scenario catalog and parameter
// registry (random composite expressions with random `@` fire times,
// random grid axes and overrides — see src/profile/fuzzer.cc). Parameter
// values come from sweep::parameter_values: every spelling of a choice
// parameter and the sample values each numeric parameter carries in its
// registry entry (src/sweep/param_grid.cc), so a new scenario, parameter
// or spelling is fuzzed as soon as it is registered.
// The sequence is deterministic in --seed: CI logs a failing seed, you
// replay it locally with the same flags.
//
// On a violation the failing profile is minimized by greedy deletion
// (scenario parts, grid axes, axis values, overrides — smallest profile
// that still fails) and written to <out>/<name>.repro.json — a plain
// profile file, so both of these replay it:
//
//   tool_fuzz --replay=results/fuzz/<name>.repro.json
//   tool_sweep --profile=results/fuzz/<name>.repro.json
//
// Exit status: 0 when every run held all four invariants, 1 otherwise, 2
// on a bad command line or --replay file (printed as `tool_fuzz:
// <message>`). An exception inside a run is an engine failure and aborts.

#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "expr/flags.h"
#include "profile/fuzzer.h"
#include "profile/invariants.h"
#include "profile/profile.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/rng.h"

using namespace cloudmedia;

namespace {

unsigned parse_threads(const expr::Flags& flags) {
  const long long requested = flags.get_ll("threads", 0);
  if (requested < 0 || requested > 1024) {
    throw util::PreconditionError(
        "--threads must be in [0, 1024] (0 = hardware)");
  }
  return static_cast<unsigned>(requested);
}

/// What the command line asks for, read and checked before anything runs.
struct Options {
  unsigned threads = 0;
  std::string replay;  ///< the repro's path; empty: fuzz
  profile::Profile repro;
  long long runs = 25;
  std::uint64_t seed = 1;
  std::string out;
};

/// The options, or nullopt once --help is printed.
std::optional<Options> parse_options(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"runs", "seed", "threads", "out", "replay", "help"});
  if (flags.has("help")) {
    std::printf(
        "usage: tool_fuzz --runs=25 --seed=1 [--threads=N] "
        "[--out=results/fuzz]\n       tool_fuzz --replay=<repro.json> "
        "[--threads=N]\n");
    return std::nullopt;
  }
  Options options;
  options.threads = parse_threads(flags);
  if (flags.has("replay")) {
    options.replay = flags.get("replay", std::string());
    options.repro = profile::Profile::load(options.replay);
    return options;
  }
  options.runs = flags.get_ll("runs", options.runs);
  if (options.runs < 1) throw util::PreconditionError("--runs must be >= 1");
  options.seed = flags.get_u64("seed", 1);
  options.out = flags.get("out", std::string("results/fuzz"));
  return options;
}

int replay(const Options& options) {
  const profile::InvariantReport report =
      profile::check_profile_invariants(options.repro, options.threads);
  const char* path = options.replay.c_str();
  if (report.ok()) {
    std::printf("replay %s: %zu cells, all invariants hold\n", path,
                report.cells);
    return 0;
  }
  std::printf("replay %s: %zu violation(s)\n%s", path,
              report.violations.size(), report.summary().c_str());
  return 1;
}

int fuzz(const Options& options) {
  const long long runs = options.runs;
  const std::uint64_t seed = options.seed;
  const unsigned threads = options.threads;
  const std::string& out = options.out;

  util::Rng rng(seed);
  std::printf("fuzz: %lld profiles, seed=%llu, checking conservation / "
              "budget / quality / 1-vs-N-thread determinism\n",
              runs, static_cast<unsigned long long>(seed));

  int failures = 0;
  for (long long i = 0; i < runs; ++i) {
    profile::Profile p = profile::random_profile(rng);
    p.name = "fuzz_" + std::to_string(seed) + "_" + std::to_string(i);
    p.description =
        "generated by tool_fuzz --seed=" + std::to_string(seed) + " run " +
        std::to_string(i);
    const profile::InvariantReport report =
        profile::check_profile_invariants(p, threads);
    if (report.ok()) {
      std::printf("  run %lld/%lld %-14s ok (%zu cells, scenario %s)\n",
                  i + 1, runs, p.name.c_str(), report.cells,
                  p.scenario.c_str());
      continue;
    }
    ++failures;
    std::printf("  run %lld/%lld %-14s FAILED:\n%s", i + 1, runs,
                p.name.c_str(), report.summary().c_str());

    // Shrink to the smallest profile that still violates something, then
    // write a replayable repro.
    std::string violated;
    for (const profile::InvariantViolation& v : report.violations) {
      if (violated.find(v.invariant) != std::string::npos) continue;
      if (!violated.empty()) violated += ", ";
      violated += v.invariant;
    }
    profile::Profile smallest = profile::minimize_failing_profile(
        p, [threads](const profile::Profile& candidate) {
          return !profile::check_profile_invariants(candidate, threads).ok();
        });
    smallest.description = "minimized repro (violated: " + violated +
                           ") from tool_fuzz --seed=" + std::to_string(seed) +
                           " run " + std::to_string(i);
    util::ensure_directory(out);
    const std::string repro = out + "/" + smallest.name + ".repro.json";
    util::write_json_file(repro, smallest.to_json());
    std::printf("    repro written: %s (replay with tool_fuzz --replay=%s "
                "or tool_sweep --profile=%s)\n",
                repro.c_str(), repro.c_str(), repro.c_str());
  }

  if (failures == 0) {
    std::printf("all %lld fuzz profiles held all invariants\n", runs);
    return 0;
  }
  std::printf("%d/%lld fuzz profiles FAILED — repros under %s/\n", failures,
              runs, out.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Options> options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tool_fuzz: %s\n", e.what());
    return 2;
  }
  if (!options) return 0;
  return options->replay.empty() ? fuzz(*options) : replay(*options);
}
