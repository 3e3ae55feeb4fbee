#include "util/csv.h"

#include <filesystem>
#include <sstream>
#include <stdexcept>

namespace cloudmedia::util {

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
}

std::string CsvWriter::escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

std::string CsvWriter::line(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out += ',';
    out += escape(fields[i]);
  }
  out += '\n';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  out_ << line(fields);
}

void CsvWriter::write_row(const std::vector<double>& fields) {
  std::ostringstream text;
  text.precision(10);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) text << ',';
    text << fields[i];
  }
  out_ << text.str() << '\n';
}

bool ensure_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec || std::filesystem::exists(path);
}

void ensure_parent_directory(const std::string& file_path) {
  const std::size_t slash = file_path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) return;
  const std::string parent = file_path.substr(0, slash);
  if (!ensure_directory(parent)) {
    throw std::runtime_error("cannot create output directory '" + parent +
                             "' for '" + file_path +
                             "' (a path component may be an existing file)");
  }
}

}  // namespace cloudmedia::util
