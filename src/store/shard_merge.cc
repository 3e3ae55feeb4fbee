#include "store/shard_merge.h"

#include <utility>

#include "sweep/sweep_runner.h"
#include "util/check.h"

namespace cloudmedia::store {

namespace {

std::string doc_label(const std::vector<std::string>& labels, std::size_t i) {
  if (i < labels.size()) return "'" + labels[i] + "'";
  return "shard document #" + std::to_string(i);
}

[[noreturn]] void fail(const std::string& message) {
  throw util::PreconditionError("--merge: " + message);
}

bool axes_equal(const std::vector<sweep::ParamAxis>& a,
                const std::vector<sweep::ParamAxis>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].values != b[i].values) return false;
  }
  return true;
}

}  // namespace

sweep::SweepResult merge_shards(const std::vector<util::JsonValue>& docs,
                                const std::vector<std::string>& labels) {
  if (docs.empty()) fail("no shard documents given");

  std::vector<sweep::SweepResult> shards;
  shards.reserve(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    sweep::SweepResult shard;
    try {
      shard = sweep::SweepResult::from_json(docs[i]);
    } catch (const std::exception& e) {
      fail(doc_label(labels, i) +
           " is not a sweep output document: " + e.what());
    }
    if (shard.shard_count <= 1) {
      fail(doc_label(labels, i) +
           " has no shard header — it was not produced with "
           "tool_sweep --shard=k/N, so there is nothing to stitch "
           "(an unsharded output is already complete)");
    }
    if (shard.shard_index >= shard.shard_count) {
      fail(doc_label(labels, i) + " claims to be shard " +
           std::to_string(shard.shard_index) + "/" +
           std::to_string(shard.shard_count) +
           ", but a k/N shard header needs k < N — the document was "
           "edited or corrupted; rerun that shard");
    }
    shards.push_back(std::move(shard));
  }

  const sweep::SweepResult& first = shards.front();
  const std::size_t count = first.shard_count;
  for (std::size_t i = 1; i < shards.size(); ++i) {
    const sweep::SweepResult& s = shards[i];
    const std::string label = doc_label(labels, i);
    const std::string against = doc_label(labels, 0);
    if (s.scenario != first.scenario) {
      fail(label + " ran scenario '" + s.scenario + "' but " + against +
           " ran '" + first.scenario +
           "' — shards of one sweep share a scenario");
    }
    if (s.base_seed != first.base_seed) {
      fail(label + " used base seed " + std::to_string(s.base_seed) + " but " +
           against + " used " + std::to_string(first.base_seed) +
           " — merging different seeds would mix different workloads");
    }
    if (!axes_equal(s.axes, first.axes)) {
      fail(label + " swept a different grid than " + against +
           " — shards must partition one identical grid");
    }
    if (s.shard_count != count || s.total_cells != first.total_cells) {
      fail(label + " is shard " + std::to_string(s.shard_index) + "/" +
           std::to_string(s.shard_count) + " of " +
           std::to_string(s.total_cells) + " cells but " + against +
           " is shard " + std::to_string(first.shard_index) + "/" +
           std::to_string(count) + " of " +
           std::to_string(first.total_cells) +
           " — every shard must come from the same k/N split");
    }
    if (s.spec_hash != first.spec_hash) {
      fail(label + " has spec hash " + s.spec_hash + " but " + against +
           " has " + first.spec_hash +
           " — the horizon or another spec field differs between the runs");
    }
  }

  if (shards.size() != count) {
    fail("got " + std::to_string(shards.size()) + " documents for a " +
         std::to_string(count) + "-way shard split — pass exactly one "
         "output per shard k = 0.." + std::to_string(count - 1));
  }
  std::vector<const sweep::SweepResult*> by_index(count, nullptr);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::size_t k = shards[i].shard_index;
    CM_EXPECTS(k < count);  // every header was checked for k < N above
    if (by_index[k] != nullptr) {
      fail("shard " + std::to_string(k) + "/" + std::to_string(count) +
           " appears more than once (" + doc_label(labels, i) + ")");
    }
    by_index[k] = &shards[i];
  }

  sweep::SweepResult merged;
  merged.scenario = first.scenario;
  merged.base_seed = first.base_seed;
  merged.axes = first.axes;
  merged.total_cells = first.total_cells;
  merged.spec_hash = first.spec_hash;
  merged.runs.resize(first.total_cells);

  for (std::size_t k = 0; k < count; ++k) {
    const sweep::SweepResult& shard = *by_index[k];
    const std::vector<std::size_t> expected = sweep::SweepRunner::shard_cells(
        first.total_cells, sweep::ShardSpec{k, count});
    if (shard.runs.size() != expected.size()) {
      fail("shard " + std::to_string(k) + "/" + std::to_string(count) +
           " holds " + std::to_string(shard.runs.size()) + " runs but owns " +
           std::to_string(expected.size()) +
           " cells — the shard output is truncated or padded");
    }
    for (std::size_t j = 0; j < expected.size(); ++j) {
      if (shard.cell_indices[j] != expected[j]) {
        fail("shard " + std::to_string(k) + "/" + std::to_string(count) +
             " row " + std::to_string(j) + " claims cell " +
             std::to_string(shard.cell_indices[j]) + " but the k/N "
             "partition assigns cell " + std::to_string(expected[j]));
      }
      merged.runs[expected[j]] = shard.runs[j];
    }
  }
  return merged;
}

sweep::SweepResult merge_shard_files(const std::vector<std::string>& paths) {
  std::vector<util::JsonValue> docs;
  docs.reserve(paths.size());
  for (const std::string& path : paths) {
    docs.push_back(util::JsonValue::parse_file(path));
  }
  return merge_shards(docs, paths);
}

}  // namespace cloudmedia::store
