#include "tracing.h"

#include "util/csv.h"
#include "util/json.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

double Trace::now_ms() const { return ms_since(origin_); }

long Trace::open(std::string name, long parent) {
  spans_.push_back(Span{run_, std::move(name), parent, now_ms(), 0.0});
  return static_cast<long>(spans_.size()) - 1;
}

double Trace::close(long span) {
  Span& s = spans_.at(static_cast<std::size_t>(span));
  s.end_ms = now_ms();
  return s.end_ms - s.start_ms;
}

void Trace::write_jsonl(const std::string& path) const {
  cloudmedia::util::ensure_parent_directory(path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    cloudmedia::util::JsonValue row = cloudmedia::util::JsonValue::object();
    row["run"] = static_cast<double>(s.run);
    row["id"] = static_cast<double>(i);
    row["name"] = s.name;
    row["parent"] = static_cast<double>(s.parent);
    row["start_ms"] = s.start_ms;
    row["end_ms"] = s.end_ms;
    out << row.dump(-1) << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
