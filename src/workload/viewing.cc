#include "workload/viewing.h"

#include <algorithm>

#include "util/check.h"

namespace cloudmedia::workload {

void ViewingBehavior::validate() const {
  CM_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
  CM_EXPECTS(jump_prob >= 0.0 && leave_prob >= 0.0);
  CM_EXPECTS(jump_prob + leave_prob <= 1.0);
  CM_EXPECTS(leave_prob > 0.0);  // sessions must terminate
}

double ViewingChain::leave(int from) const {
  double row = 0.0;
  for (int k = 0; k < num_chunks; ++k) row += transfer(from, k);
  return std::max(0.0, 1.0 - row);
}

double ViewingChain::step(std::span<const double> occ,
                          std::span<double> next) const {
  const auto j = static_cast<std::size_t>(num_chunks);
  CM_EXPECTS(occ.size() == j && next.size() == j);
  double occupied = 0.0;
  for (const double o : occ) occupied += o;
  double stay = 0.0;
  double before = 0.0;  // occ[k − 1]; nothing plays on into chunk 0
  for (std::size_t k = 0; k < j; ++k) {
    const double o = occ[k];
    const double n = jump_each * (occupied - o) + play * before;
    next[k] = n;
    stay += n;
    before = o;
  }
  return stay;
}

ViewingChain ViewingBehavior::chain(int num_chunks) const {
  validate();
  CM_EXPECTS(num_chunks >= 1);
  ViewingChain chain;
  chain.num_chunks = num_chunks;
  // A single chunk has no other chunk to seek to: any transition leaves.
  if (num_chunks > 1) {
    chain.jump_each = jump_prob / static_cast<double>(num_chunks - 1);
  }
  chain.play = 1.0 - jump_prob - leave_prob;
  chain.advance = chain.jump_each + chain.play;
  return chain;
}

util::Matrix ViewingBehavior::transfer_matrix(int num_chunks) const {
  const ViewingChain c = chain(num_chunks);
  const auto j = static_cast<std::size_t>(num_chunks);
  util::Matrix p(j, j);
  for (std::size_t i = 0; i < j; ++i) {
    for (std::size_t k = 0; k < j; ++k) {
      p(i, k) = c.transfer(static_cast<int>(i), static_cast<int>(k));
    }
  }
  return p;
}

std::vector<double> ViewingBehavior::entry_distribution(int num_chunks) const {
  validate();
  CM_EXPECTS(num_chunks >= 1);
  std::vector<double> d(static_cast<std::size_t>(num_chunks), 0.0);
  if (num_chunks == 1) {
    d[0] = 1.0;
    return d;
  }
  d[0] = alpha;
  const double rest = (1.0 - alpha) / static_cast<double>(num_chunks - 1);
  for (std::size_t i = 1; i < d.size(); ++i) d[i] = rest;
  return d;
}

std::optional<int> ViewingBehavior::sample_next(int chunk, int num_chunks,
                                                util::Rng& rng) const {
  CM_EXPECTS(chunk >= 0 && chunk < num_chunks);
  const double u = rng.uniform();
  if (u < leave_prob) return std::nullopt;
  if (u < leave_prob + jump_prob && num_chunks > 1) {
    int target = rng.uniform_int(0, num_chunks - 2);
    if (target >= chunk) ++target;  // uniform over chunks != current
    return target;
  }
  if (chunk + 1 < num_chunks) return chunk + 1;
  return std::nullopt;  // finished the video
}

int ViewingBehavior::sample_entry(int num_chunks, util::Rng& rng) const {
  CM_EXPECTS(num_chunks >= 1);
  if (num_chunks == 1) return 0;
  if (rng.uniform() < alpha) return 0;
  return rng.uniform_int(1, num_chunks - 1);
}

SessionGenerator::SessionGenerator(ViewingBehavior behavior, int num_chunks,
                                   int max_chunks)
    : behavior_(behavior), num_chunks_(num_chunks), max_chunks_(max_chunks) {
  behavior_.validate();
  CM_EXPECTS(num_chunks >= 1);
  CM_EXPECTS(max_chunks >= 1);
}

std::vector<int> SessionGenerator::sample_walk(util::Rng& rng) const {
  std::vector<int> walk;
  walk.push_back(behavior_.sample_entry(num_chunks_, rng));
  while (static_cast<int>(walk.size()) < max_chunks_) {
    const auto next = behavior_.sample_next(walk.back(), num_chunks_, rng);
    if (!next) break;
    walk.push_back(*next);
  }
  return walk;
}

}  // namespace cloudmedia::workload
