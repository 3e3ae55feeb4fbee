#pragma once

#include <optional>
#include <span>
#include <vector>

#include "util/matrix.h"
#include "util/rng.h"

namespace cloudmedia::workload {

/// The Sec. III-B viewing chain over J chunks, held as the constants its
/// transfer matrix is made of: from chunk j a viewer seeks to each other
/// chunk with probability `jump_each` and plays on to j + 1 with `play`
/// more, so P = jump_each·(11ᵀ − I) + play·shift. A row reads in O(1) per
/// cell and a mass row steps in O(J), where a dense P takes J².
struct ViewingChain {
  int num_chunks = 1;
  double jump_each = 0.0;  ///< c = jump_prob / (J − 1); 0 when J = 1
  double play = 0.0;       ///< s = 1 − jump_prob − leave_prob
  double advance = 0.0;    ///< P(j, j + 1) = jump_each + play

  /// P(from, to), the double transfer_matrix stores there.
  [[nodiscard]] double transfer(int from, int to) const noexcept {
    if (to == from) return 0.0;
    return to == from + 1 ? advance : jump_each;
  }
  /// Leave probability from chunk `from`: 1 − Σ_k P(from, k), the row
  /// summed in k order, floored at 0.
  [[nodiscard]] double leave(int from) const;
  /// One step of a row of occupancy mass (all ≥ 0) through P:
  /// next[k] = jump_each·(S − occ[k]) + play·occ[k − 1] with S = Σ occ.
  /// Returns Σ_k next[k], summed in k order: the mass that stays.
  double step(std::span<const double> occ, std::span<double> next) const;
};

/// Parameters of the per-chunk viewing behaviour that induces the paper's
/// chunk transfer probability matrix P (Sec. III-B / IV-A).
///
/// After finishing chunk i a viewer:
///   - leaves the channel with probability `leave_prob`;
///   - seeks to a uniformly random other chunk with probability `jump_prob`
///     (the paper's VCR operations; with T0 = 5 min chunks and a mean
///     15-minute inter-jump interval, jump_prob ≈ 1 - e^{-1/3} ≈ 0.28);
///   - otherwise continues to chunk i+1 (leaving after the last chunk).
/// A fraction `alpha` of arriving users starts at chunk 1; the rest start
/// uniformly across the other chunks (the paper's α).
struct ViewingBehavior {
  double alpha = 0.6;
  double jump_prob = 0.28;
  double leave_prob = 0.12;

  void validate() const;

  /// The viewing chain over `num_chunks` chunks: the constants of P.
  [[nodiscard]] ViewingChain chain(int num_chunks) const;

  /// The J×J chunk transfer matrix P with P(i,j) = P_ij, filled from
  /// chain(). Rows are sub-stochastic: 1 - Σ_j P_ij is the leave
  /// probability from chunk i.
  [[nodiscard]] util::Matrix transfer_matrix(int num_chunks) const;

  /// External entry distribution over chunks: alpha at chunk 0, the rest
  /// uniform (paper Sec. IV-A).
  [[nodiscard]] std::vector<double> entry_distribution(int num_chunks) const;

  /// Sample the chunk watched after `chunk`; nullopt means the user leaves.
  [[nodiscard]] std::optional<int> sample_next(int chunk, int num_chunks,
                                               util::Rng& rng) const;

  /// Sample the first chunk of a session.
  [[nodiscard]] int sample_entry(int num_chunks, util::Rng& rng) const;
};

/// A fully pre-determined user session: the chunks the user will watch, in
/// order. Sessions are drawn from per-user derived RNG streams so the same
/// (seed, user index) always yields the same walk — this is what lets us
/// replay identical workloads against different provisioning systems.
struct SessionScript {
  int channel = 0;
  double uplink = 0.0;          ///< peer upload capacity, bytes/s
  std::vector<int> chunks;      ///< non-empty chunk walk
};

/// Generates session scripts from a behaviour model.
class SessionGenerator {
 public:
  /// `max_chunks` bounds pathological walks (jump loops); the geometric
  /// leave probability makes hitting the bound astronomically unlikely.
  SessionGenerator(ViewingBehavior behavior, int num_chunks,
                   int max_chunks = 1000);

  [[nodiscard]] std::vector<int> sample_walk(util::Rng& rng) const;

  [[nodiscard]] const ViewingBehavior& behavior() const noexcept { return behavior_; }
  [[nodiscard]] int num_chunks() const noexcept { return num_chunks_; }

 private:
  ViewingBehavior behavior_;
  int num_chunks_;
  int max_chunks_;
};

}  // namespace cloudmedia::workload
