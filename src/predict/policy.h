#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/demand.h"
#include "predict/forecaster.h"

namespace cloudmedia::predict {

/// Demand policy that drives the paper's Sec.-IV queueing model with a
/// pluggable arrival-rate forecaster instead of last-interval persistence.
///
/// Each channel gets its own forecaster of the configured kind. Every
/// interval the measured rate Λ̂ is fed to the channel's forecaster, the
/// next interval's rate is forecast, and the Sec.-IV pipeline (traffic
/// equations → Erlang sizing → peer-supply subtraction) runs on the
/// forecast rate with the *measured* viewing patterns P̂ — exactly the
/// paper's controller with the predictor swapped out.
///
/// With ForecasterKind::kPersistence this is behaviourally identical to
/// core::ModelBasedPolicy; the other kinds implement the paper's deferred
/// "more accurate prediction" future work.
class ForecastPolicy final : public core::DemandPolicy {
 public:
  ForecastPolicy(core::VodParameters params,
                 core::DemandEstimatorConfig config, ForecasterKind kind);

  [[nodiscard]] core::DemandSet estimate(
      const core::TrackerReport& report) override;
  [[nodiscard]] std::string name() const override;

 private:
  core::DemandEstimator estimator_;
  ForecasterKind kind_;
  std::vector<std::unique_ptr<Forecaster>> bank_;  ///< one per channel
};

}  // namespace cloudmedia::predict
