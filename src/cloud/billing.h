#pragma once

#include <string>
#include <unordered_map>

#include "sim/simulator.h"

namespace cloudmedia::cloud {

/// Usage-time billing (Sec. III-A: "services are charged by usage time,
/// following the charging model of ... Amazon EC2 and S3").
///
/// Each category (e.g. "vm", "storage") has a piecewise-constant $/hour
/// rate; the meter integrates dollars over simulated time.
class CostMeter {
 public:
  explicit CostMeter(sim::Simulator& simulator) : sim_(&simulator) {}

  /// Change the category's rate as of now().
  void set_rate(const std::string& category, double dollars_per_hour);

  /// Total dollars accrued by the category up to now().
  [[nodiscard]] double total(const std::string& category) const;

 private:
  struct Account {
    double rate = 0.0;          ///< $/h
    double accrued = 0.0;       ///< $ up to last_change
    double last_change = 0.0;   ///< seconds
  };

  [[nodiscard]] double accrued_to_now(const Account& account) const;

  sim::Simulator* sim_;
  std::unordered_map<std::string, Account> accounts_;
};

}  // namespace cloudmedia::cloud
