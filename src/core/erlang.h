#pragma once

namespace cloudmedia::core {

/// Erlang-B blocking probability for m servers at offered load a = λ/µ,
/// via the numerically stable recursion B(0)=1,
/// B(k) = a·B(k-1) / (k + a·B(k-1)).
[[nodiscard]] double erlang_b(int servers, double offered_load);

/// Erlang-C waiting probability (the paper's Eqn. (2) normalization) for an
/// M/M/m queue; requires offered_load < servers (stability).
[[nodiscard]] double erlang_c(int servers, double offered_load);

/// Stationary metrics of an M/M/m/∞ queue.
struct MmmMetrics {
  double offered_load = 0.0;      ///< a = λ/µ
  double utilization = 0.0;       ///< ρ = a/m
  double prob_wait = 0.0;         ///< Erlang-C
  double expected_queue = 0.0;    ///< E[jobs waiting]
  double expected_system = 0.0;   ///< E[n] — the paper's Eqn. (3)
  double expected_wait = 0.0;     ///< E[time in queue]
  double expected_sojourn = 0.0;  ///< E[wait + service]
};

/// Metrics for arrival rate λ, per-server rate µ, m servers.
/// Requires λ >= 0, µ > 0, m >= 1 and λ < m·µ.
[[nodiscard]] MmmMetrics mmm_metrics(double lambda, double mu, int servers);

/// The paper's server-sizing iteration (Sec. IV-B): the smallest m such
/// that the M/M/m queue is stable and E[n] <= target_system_size — by
/// Little's law, the smallest m whose expected sojourn is <= target/λ.
/// Returns 0 when λ == 0. Requires target_system_size > λ/µ (equivalently
/// R > r in the paper's mapping), otherwise no finite m exists.
///
/// When `at_min` is non-null it receives the metrics the search already
/// evaluated at the returned m — bitwise equal to mmm_metrics(λ, µ, m), so
/// callers need not rerun the O(m) Erlang recursion. It is value-initialised
/// when λ == 0 (m = 0).
[[nodiscard]] int min_servers(double lambda, double mu,
                              double target_system_size,
                              MmmMetrics* at_min = nullptr);

}  // namespace cloudmedia::core
