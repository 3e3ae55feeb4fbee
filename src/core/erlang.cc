#include "core/erlang.h"

#include <limits>

#include "util/check.h"

namespace cloudmedia::core {

double erlang_b(int servers, double offered_load) {
  CM_EXPECTS(servers >= 0);
  CM_EXPECTS(offered_load >= 0.0);
  double b = 1.0;
  for (int k = 1; k <= servers; ++k) {
    b = offered_load * b / (static_cast<double>(k) + offered_load * b);
  }
  return b;
}

double erlang_c(int servers, double offered_load) {
  CM_EXPECTS(servers >= 1);
  CM_EXPECTS(offered_load >= 0.0);
  CM_EXPECTS(offered_load < static_cast<double>(servers));
  if (offered_load == 0.0) return 0.0;
  const double b = erlang_b(servers, offered_load);
  const double m = static_cast<double>(servers);
  return m * b / (m - offered_load * (1.0 - b));
}

MmmMetrics mmm_metrics(double lambda, double mu, int servers) {
  CM_EXPECTS(lambda >= 0.0);
  CM_EXPECTS(mu > 0.0);
  CM_EXPECTS(servers >= 1);
  const double a = lambda / mu;
  CM_EXPECTS(a < static_cast<double>(servers));

  MmmMetrics out;
  out.offered_load = a;
  out.utilization = a / static_cast<double>(servers);
  if (lambda == 0.0) {
    out.expected_sojourn = 1.0 / mu;
    return out;
  }
  out.prob_wait = erlang_c(servers, a);
  out.expected_queue = out.prob_wait * out.utilization / (1.0 - out.utilization);
  // E[n] = E[queue] + E[busy servers]; E[busy] = a in a stable M/M/m.
  out.expected_system = out.expected_queue + a;
  out.expected_wait = out.expected_queue / lambda;  // Little on the queue
  out.expected_sojourn = out.expected_wait + 1.0 / mu;
  return out;
}

int min_servers(double lambda, double mu, double target_system_size,
                MmmMetrics* at_min) {
  CM_EXPECTS(lambda >= 0.0);
  CM_EXPECTS(mu > 0.0);
  if (lambda == 0.0) {
    if (at_min != nullptr) *at_min = MmmMetrics{};
    return 0;
  }
  const double a = lambda / mu;
  // E[n] >= a for every m and E[n] -> a as m -> inf, so the target is
  // reachable iff it exceeds the offered load. In the paper's mapping the
  // target is λT0 = a·(R/r) > a because R > r.
  CM_EXPECTS(target_system_size > a);

  // The paper initializes m = 1 and increments until E[n] <= λT0
  // (Sec. IV-B); values of m <= a are unstable (E[n] = ∞), so start just
  // above the stability threshold. E[n] is strictly decreasing in m, so a
  // gallop + binary search finds the same minimal m as the paper's linear
  // scan in O(log(m - a)) evaluations instead of O(m - a). Each evaluation
  // restarts the O(m) Erlang-B recursion; at the planner's target λT0 the
  // first stable m almost always meets it, so a sizing is one evaluation.
  constexpr int kMaxServers = 1 << 24;
  // Each successful probe lowers the smallest m known to meet the target,
  // so the last metrics written to *at_min belong to the m returned.
  const auto meets_target = [&](int m) {
    const MmmMetrics metrics = mmm_metrics(lambda, mu, m);
    if (metrics.expected_system > target_system_size) return false;
    if (at_min != nullptr) *at_min = metrics;
    return true;
  };
  // The first stable m is floor(a) + 1; compare in double before the
  // conversion, which would overflow int for a >= 2^31.
  if (a >= static_cast<double>(kMaxServers - 1)) {
    throw util::InvariantError("min_servers: no feasible m below cap");
  }
  const int first_stable = static_cast<int>(a) + 1;
  if (meets_target(first_stable)) return first_stable;

  int below = first_stable;  // largest m known to miss the target
  int step = 1;
  int above = 0;  // smallest m known to meet it
  for (;;) {
    const int candidate = below + step;
    if (candidate >= kMaxServers) {
      throw util::InvariantError("min_servers: no feasible m below cap");
    }
    if (meets_target(candidate)) {
      above = candidate;
      break;
    }
    below = candidate;
    step *= 2;
  }
  while (above - below > 1) {
    const int mid = below + (above - below) / 2;
    if (meets_target(mid)) {
      above = mid;
    } else {
      below = mid;
    }
  }
  return above;
}

}  // namespace cloudmedia::core
