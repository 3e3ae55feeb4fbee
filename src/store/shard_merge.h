#pragma once

#include <string>
#include <vector>

#include "sweep/run_summary.h"
#include "util/json.h"

namespace cloudmedia::store {

/// Stitch the N shard outputs of one logical sweep (SweepResult::to_json
/// documents produced with `--shard=k/N`) back into the unsharded result.
/// Because per-run seeds derive only from (base_seed, workload
/// coordinates), the merged result serializes byte-identically to a
/// single-process run of the same spec — `cmp` against a goldens/ snapshot
/// is the intended verification.
///
/// Validates before stitching and throws util::PreconditionError with a
/// teaching message when the inputs are not the complete shard set of one
/// sweep: a document without a shard header or with a shard index k >= N,
/// mismatched scenario / seed / spec hash / grid across documents,
/// duplicate or missing shard indices, and per-shard cell sequences that
/// do not match the deterministic k/N partition. `labels` names each document in errors (file paths when
/// merging files); it may be empty or shorter than `docs`.
[[nodiscard]] sweep::SweepResult merge_shards(
    const std::vector<util::JsonValue>& docs,
    const std::vector<std::string>& labels = {});

/// merge_shards() over files written by `tool_sweep --shard=k/N --out=...`,
/// labelled by path.
[[nodiscard]] sweep::SweepResult merge_shard_files(
    const std::vector<std::string>& paths);

}  // namespace cloudmedia::store
