#include "cloud/billing.h"

#include "util/check.h"

namespace cloudmedia::cloud {

void CostMeter::set_rate(const std::string& category, double dollars_per_hour) {
  CM_EXPECTS(dollars_per_hour >= 0.0);
  Account& account = accounts_[category];
  account.accrued = accrued_to_now(account);
  account.last_change = sim_->now();
  account.rate = dollars_per_hour;
}

double CostMeter::accrued_to_now(const Account& account) const {
  const double hours = (sim_->now() - account.last_change) / 3600.0;
  return account.accrued + account.rate * hours;
}

double CostMeter::total(const std::string& category) const {
  const auto it = accounts_.find(category);
  return it == accounts_.end() ? 0.0 : accrued_to_now(it->second);
}

}  // namespace cloudmedia::cloud
