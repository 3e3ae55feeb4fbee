#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace cloudmedia::util {

/// Minimal CSV writer used by the figure benches to dump series next to the
/// human-readable stdout report. Fields containing commas/quotes/newlines
/// are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens (truncates) `path`; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  void write_row(const std::vector<std::string>& fields);
  /// Convenience: formats doubles with enough precision for replotting.
  void write_row(const std::vector<double>& fields);
  void write_header(const std::vector<std::string>& names) { write_row(names); }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  [[nodiscard]] static std::string escape(const std::string& field);
  /// One CSV line: the escaped fields joined by ',' and a trailing '\n'.
  [[nodiscard]] static std::string line(const std::vector<std::string>& fields);

 private:
  std::string path_;
  std::ofstream out_;
};

/// Create directory (and parents) if missing; returns true on success or if
/// it already existed.
bool ensure_directory(const std::string& path);

/// Create the parent directory of `file_path` (and its ancestors) if
/// missing. A bare filename has no parent and is a no-op. Throws
/// std::runtime_error naming the directory when it cannot be created —
/// e.g. a path component is an existing regular file.
void ensure_parent_directory(const std::string& file_path);

}  // namespace cloudmedia::util
