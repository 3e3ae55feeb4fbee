#include "predict/policy.h"

#include "util/check.h"

namespace cloudmedia::predict {

ForecastPolicy::ForecastPolicy(core::VodParameters params,
                               core::DemandEstimatorConfig config,
                               ForecasterKind kind)
    : estimator_(params, config), kind_(kind) {}

std::string ForecastPolicy::name() const {
  return "forecast:" + to_string(kind_);
}

core::DemandSet ForecastPolicy::estimate(const core::TrackerReport& report) {
  if (bank_.empty()) {
    bank_.reserve(report.channels.size());
    for (std::size_t c = 0; c < report.channels.size(); ++c) {
      bank_.push_back(make_forecaster(kind_));
    }
  }
  CM_EXPECTS(bank_.size() == report.channels.size());
  return core::estimate_channels(
      estimator_, report, [&](std::size_t c, double measured) {
        bank_[c]->observe(measured);
        return bank_[c]->forecast();
      });
}

}  // namespace cloudmedia::predict
