#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. A span is one timed call
/// into a layer's public function, recorded by the benchmark around the
/// call (the library itself is not instrumented). Spans of one run share a
/// run id; `parent` indexes the enclosing span in spans(), -1 at the root.
/// Nothing is written until write_jsonl(), after the runs end.
class Trace {
 public:
  struct Span {
    std::uint64_t run = 0;
    std::string name;
    long parent = -1;
    double start_ms = 0.0;  ///< since the trace was created
    double end_ms = 0.0;
  };

  /// Start a new run id; spans opened afterwards carry it.
  void begin_run() { ++run_; }

  /// Open a span and return its index (pass it to close() and as the
  /// parent of nested spans).
  long open(std::string name, long parent = -1);
  /// Close the span and return its duration in milliseconds.
  double close(long span);

  /// One JSON object per line: run, id, name, parent, start_ms, end_ms.
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] double now_ms() const;

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::uint64_t run_ = 0;
  std::vector<Span> spans_;
};

/// Milliseconds since `start` on the steady clock.
[[nodiscard]] inline double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace perfbench
