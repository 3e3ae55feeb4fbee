#include <gtest/gtest.h>

#include <numeric>

#include "cloud/cloud_service.h"
#include "core/controller.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "workload/viewing.h"

namespace cloudmedia::cloud {
namespace {

using core::StreamingMode;

// ----------------------------------------------------------------- billing

TEST(CostMeter, IntegratesPiecewiseConstantRate) {
  sim::Simulator sim;
  CostMeter meter(sim);
  meter.set_rate("vm", 10.0);  // $/h from t=0
  sim.run_until(1800.0);       // half an hour
  EXPECT_NEAR(meter.total("vm"), 5.0, 1e-9);
  meter.set_rate("vm", 20.0);
  sim.run_until(5400.0);  // another hour at $20
  EXPECT_NEAR(meter.total("vm"), 25.0, 1e-9);
}

TEST(CostMeter, TracksCategoriesIndependently) {
  sim::Simulator sim;
  CostMeter meter(sim);
  meter.set_rate("vm", 48.0);
  meter.set_rate("storage", 0.00075);
  sim.run_until(24.0 * 3600.0);
  EXPECT_NEAR(meter.total("vm"), 48.0 * 24.0, 1e-6);
  EXPECT_NEAR(meter.total("storage"), 0.018, 1e-9);  // the paper's $/day
}

TEST(CostMeter, UnknownCategoryIsZero) {
  sim::Simulator sim;
  const CostMeter meter(sim);
  EXPECT_DOUBLE_EQ(meter.total("nope"), 0.0);
}

TEST(CostMeter, RejectsNegativeRate) {
  sim::Simulator sim;
  CostMeter meter(sim);
  EXPECT_THROW(meter.set_rate("vm", -1.0), util::PreconditionError);
}

// ---------------------------------------------------------- plan fixtures

core::ProvisioningPlan make_plan(double arrival_rate,
                                 StreamingMode mode = StreamingMode::kClientServer) {
  const core::VodParameters params;
  core::DemandEstimatorConfig est;
  est.mode = mode;
  core::ControllerConfig cfg{core::paper_vm_clusters(),
                             core::paper_nfs_clusters(), 100.0, 1.0};
  core::Controller controller(
      params, cfg, std::make_unique<core::ModelBasedPolicy>(params, est));

  const workload::ViewingBehavior behavior;
  core::ChannelObservation obs;
  obs.arrival_rate = arrival_rate;
  obs.transfer = behavior.transfer_matrix(params.chunks_per_video);
  obs.entry = behavior.entry_distribution(params.chunks_per_video);
  obs.occupancy.assign(static_cast<std::size_t>(params.chunks_per_video), 0.0);
  obs.served_cloud_bandwidth = obs.occupancy;
  obs.mean_peer_uplink = 50'000.0;

  core::TrackerReport report;
  report.interval_length = 3600.0;
  report.channels = {obs};
  return controller.plan(report);
}

CloudConfig paper_cloud_config(double boot_delay = 25.0) {
  CloudConfig cfg;
  cfg.sla = SlaTerms{100.0, 1.0, core::paper_vm_clusters(),
                     core::paper_nfs_clusters()};
  cfg.vm = VmSchedulerConfig{boot_delay, 1'250'000.0};
  return cfg;
}

// ------------------------------------------------------------ VM scheduler

TEST(VmScheduler, CapacityAppearsAfterBootDelay) {
  sim::Simulator sim;
  VmScheduler scheduler(sim, core::paper_vm_clusters(),
                        VmSchedulerConfig{25.0, 1'250'000.0});
  const core::ProvisioningPlan plan = make_plan(0.2);
  scheduler.apply(plan.vm_problem, plan.instances, 1, 20);

  // Billed immediately, capacity only after the boot completes.
  EXPECT_GT(scheduler.reserved_bandwidth(), 0.0);
  double capacity_now = 0.0;
  for (int i = 0; i < 20; ++i) capacity_now += scheduler.chunk_capacity(0, i);
  EXPECT_DOUBLE_EQ(capacity_now, 0.0);

  sim.run_until(24.9);
  capacity_now = 0.0;
  for (int i = 0; i < 20; ++i) capacity_now += scheduler.chunk_capacity(0, i);
  EXPECT_DOUBLE_EQ(capacity_now, 0.0);

  sim.run_until(25.0);
  capacity_now = 0.0;
  for (int i = 0; i < 20; ++i) capacity_now += scheduler.chunk_capacity(0, i);
  EXPECT_NEAR(capacity_now, plan.reserved_bandwidth, 1.0);
}

TEST(VmScheduler, ZeroDelayIsImmediate) {
  sim::Simulator sim;
  VmScheduler scheduler(sim, core::paper_vm_clusters(),
                        VmSchedulerConfig{0.0, 1'250'000.0});
  const core::ProvisioningPlan plan = make_plan(0.2);
  scheduler.apply(plan.vm_problem, plan.instances, 1, 20);
  double capacity_now = 0.0;
  for (int i = 0; i < 20; ++i) capacity_now += scheduler.chunk_capacity(0, i);
  EXPECT_NEAR(capacity_now, plan.reserved_bandwidth, 1.0);
}

TEST(VmScheduler, ShutdownIsImmediate) {
  sim::Simulator sim;
  VmScheduler scheduler(sim, core::paper_vm_clusters(),
                        VmSchedulerConfig{25.0, 1'250'000.0});
  const core::ProvisioningPlan big = make_plan(0.5);
  scheduler.apply(big.vm_problem, big.instances, 1, 20);
  sim.run_until(100.0);
  const double reserved_before = scheduler.reserved_bandwidth();

  const core::ProvisioningPlan small = make_plan(0.01);
  scheduler.apply(small.vm_problem, small.instances, 1, 20);
  EXPECT_LT(scheduler.reserved_bandwidth(), reserved_before);
  // Ready count drops instantly with the billed count.
  for (std::size_t v = 0; v < scheduler.num_clusters(); ++v) {
    EXPECT_LE(scheduler.ready_instances(v), scheduler.billed_instances(v));
  }
}

TEST(VmScheduler, CostRateMatchesBilledInstances) {
  sim::Simulator sim;
  VmScheduler scheduler(sim, core::paper_vm_clusters(),
                        VmSchedulerConfig{25.0, 1'250'000.0});
  const core::ProvisioningPlan plan = make_plan(0.3);
  scheduler.apply(plan.vm_problem, plan.instances, 1, 20);
  EXPECT_NEAR(scheduler.cost_rate(), plan.vm_cost_rate, 1e-9);
}

TEST(VmScheduler, ListenerFiresOnApplyAndBootCompletion) {
  sim::Simulator sim;
  VmScheduler scheduler(sim, core::paper_vm_clusters(),
                        VmSchedulerConfig{25.0, 1'250'000.0});
  int fires = 0;
  scheduler.set_capacity_listener([&] { ++fires; });
  const core::ProvisioningPlan plan = make_plan(0.2);
  scheduler.apply(plan.vm_problem, plan.instances, 1, 20);
  EXPECT_EQ(fires, 1);
  sim.run_until(30.0);
  EXPECT_EQ(fires, 2);
}

TEST(VmScheduler, ReplanCancelsPendingBoot) {
  sim::Simulator sim;
  VmScheduler scheduler(sim, core::paper_vm_clusters(),
                        VmSchedulerConfig{25.0, 1'250'000.0});
  const core::ProvisioningPlan plan = make_plan(0.2);
  scheduler.apply(plan.vm_problem, plan.instances, 1, 20);
  sim.run_until(10.0);
  scheduler.apply(plan.vm_problem, plan.instances, 1, 20);  // replan at t=10
  sim.run_until(100.0);
  // No stale boot event left behind; capacity settled.
  for (std::size_t v = 0; v < scheduler.num_clusters(); ++v) {
    EXPECT_EQ(scheduler.ready_instances(v), scheduler.billed_instances(v));
  }
}

// ----------------------------------------------------------- NFS scheduler

TEST(NfsScheduler, AppliesPlacementAndBills) {
  NfsScheduler scheduler(core::paper_nfs_clusters());
  const core::ProvisioningPlan plan = make_plan(0.2);
  scheduler.apply(plan.storage_problem, plan.storage);
  EXPECT_EQ(scheduler.stored_chunks(0) + scheduler.stored_chunks(1), 20);
  EXPECT_NEAR(scheduler.cost_rate(), plan.storage_cost_rate, 1e-12);
  EXPECT_GT(scheduler.used_bytes(0) + scheduler.used_bytes(1), 0.0);
}

TEST(NfsScheduler, RejectsOverCapacityPlacement) {
  std::vector<core::NfsClusterSpec> tiny = core::paper_nfs_clusters();
  tiny[0].capacity_bytes = 15e6;  // one chunk
  tiny[1].capacity_bytes = 15e6;
  NfsScheduler scheduler(tiny);
  core::StorageProblem problem;
  problem.clusters = tiny;
  problem.chunk_bytes = 15e6;
  problem.budget_per_hour = 1.0;
  for (int i = 0; i < 4; ++i) problem.chunks.push_back({{0, i}, 1.0});
  core::StorageAssignment assignment;
  assignment.cluster_of = {0, 0, 1, 1};  // two chunks per one-chunk cluster
  EXPECT_THROW(scheduler.apply(problem, assignment), util::InvariantError);
}

// -------------------------------------------------------------- SLA/broker

TEST(Sla, AdmitsPaperScalePlan) {
  const SlaNegotiator sla(paper_cloud_config().sla);
  std::string reason;
  EXPECT_TRUE(sla.admit(make_plan(0.3), &reason)) << reason;
}

TEST(Sla, RejectsOverBudgetPlan) {
  CloudConfig cfg = paper_cloud_config();
  cfg.sla.vm_budget_per_hour = 0.5;  // below one VM-hour
  const SlaNegotiator sla(cfg.sla);
  std::string reason;
  EXPECT_FALSE(sla.admit(make_plan(0.5), &reason));
  EXPECT_FALSE(reason.empty());
}

TEST(VmMonitorCounters, TracksScaleEvents) {
  VmMonitor monitor(2);
  monitor.on_scale(0, +5);
  monitor.on_scale(0, -2);
  monitor.on_scale(1, +1);
  EXPECT_EQ(monitor.boots(0), 5);
  EXPECT_EQ(monitor.shutdowns(0), 2);
  EXPECT_EQ(monitor.total_boots(), 6);
  EXPECT_EQ(monitor.total_shutdowns(), 2);
}

// ------------------------------------------------------------ CloudService

TEST(CloudService, SubmitAppliesSchedulersAndBilling) {
  sim::Simulator sim;
  CloudService cloud(sim, paper_cloud_config(0.0));
  const core::ProvisioningPlan plan = make_plan(0.2);
  ASSERT_TRUE(cloud.submit_plan(plan, 1, 20));

  EXPECT_NEAR(cloud.vm_cost_rate(), plan.vm_cost_rate, 1e-9);
  EXPECT_NEAR(cloud.storage_cost_rate(), plan.storage_cost_rate, 1e-12);
  EXPECT_NEAR(cloud.reserved_bandwidth(),
              cloud.vm_scheduler().reserved_bandwidth(), 1e-9);
  ASSERT_EQ(cloud.request_monitor().log().size(), 1u);
  EXPECT_TRUE(cloud.request_monitor().log()[0].admitted);

  sim.run_until(3600.0);
  EXPECT_NEAR(cloud.billing().total("vm"), plan.vm_cost_rate, 1e-6);
}

TEST(CloudService, RejectedPlanChangesNothing) {
  sim::Simulator sim;
  CloudConfig cfg = paper_cloud_config(0.0);
  cfg.sla.vm_budget_per_hour = 0.01;
  CloudService cloud(sim, cfg);
  EXPECT_FALSE(cloud.submit_plan(make_plan(0.5), 1, 20));
  EXPECT_DOUBLE_EQ(cloud.reserved_bandwidth(), 0.0);
  EXPECT_DOUBLE_EQ(cloud.vm_cost_rate(), 0.0);
  ASSERT_EQ(cloud.request_monitor().log().size(), 1u);
  EXPECT_FALSE(cloud.request_monitor().log()[0].admitted);
}

TEST(CloudService, MonitorsInstanceChurnAcrossPlans) {
  sim::Simulator sim;
  CloudService cloud(sim, paper_cloud_config(0.0));
  ASSERT_TRUE(cloud.submit_plan(make_plan(0.5), 1, 20));
  sim.run_until(3600.0);
  ASSERT_TRUE(cloud.submit_plan(make_plan(0.05), 1, 20));
  EXPECT_GT(cloud.vm_monitor().total_boots(), 0);
  EXPECT_GT(cloud.vm_monitor().total_shutdowns(), 0);
}

TEST(CloudService, BillingIntegratesAcrossPlanChanges) {
  sim::Simulator sim;
  CloudService cloud(sim, paper_cloud_config(0.0));
  ASSERT_TRUE(cloud.submit_plan(make_plan(0.4), 1, 20));
  const double rate1 = cloud.vm_cost_rate();
  sim.run_until(1800.0);  // half an hour at rate1
  ASSERT_TRUE(cloud.submit_plan(make_plan(0.05), 1, 20));
  const double rate2 = cloud.vm_cost_rate();
  ASSERT_LT(rate2, rate1);
  sim.run_until(5400.0);  // one more hour at rate2
  EXPECT_NEAR(cloud.billing().total("vm"), rate1 * 0.5 + rate2 * 1.0, 1e-6);
}

TEST(CloudService, P2pPlanReservesLessThanClientServer) {
  sim::Simulator sim1, sim2;
  CloudService cs(sim1, paper_cloud_config(0.0));
  CloudService p2p(sim2, paper_cloud_config(0.0));
  ASSERT_TRUE(cs.submit_plan(make_plan(0.3, StreamingMode::kClientServer), 1, 20));
  ASSERT_TRUE(p2p.submit_plan(make_plan(0.3, StreamingMode::kP2p), 1, 20));
  EXPECT_LT(p2p.reserved_bandwidth(), cs.reserved_bandwidth());
  EXPECT_LT(p2p.vm_cost_rate(), cs.vm_cost_rate());
}

}  // namespace
}  // namespace cloudmedia::cloud
