// Microbenchmarks (google-benchmark) for the algorithms on the controller's
// hourly critical path: Erlang sizing, traffic equations, Proposition-1
// availability, Eqn.-(5) supply, both Sec.-V heuristics + instance packing,
// the processor-sharing pool, and a full controller planning cycle at
// paper scale (20 channels x 20 chunks).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/capacity.h"
#include "core/controller.h"
#include "core/erlang.h"
#include "core/jackson.h"
#include "core/p2p.h"
#include "sim/callback.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "vod/service_pool.h"
#include "workload/viewing.h"

using namespace cloudmedia;

namespace {

const core::VodParameters kParams;

util::Matrix paper_transfer() {
  return workload::ViewingBehavior{}.transfer_matrix(kParams.chunks_per_video);
}

std::vector<double> paper_lambdas(double rate) {
  const workload::ViewingBehavior behavior;
  return core::solve_traffic_equations(
      paper_transfer(), behavior.entry_distribution(kParams.chunks_per_video),
      rate);
}

void BM_ErlangC(benchmark::State& state) {
  const double a = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::erlang_c(state.range(0) + 2, a));
  }
}
BENCHMARK(BM_ErlangC)->Arg(4)->Arg(32)->Arg(256);

void BM_MinServers(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0)) / 100.0;
  const double mu = kParams.service_rate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::min_servers(lambda, mu, lambda * kParams.chunk_duration));
  }
}
// Arg = 100·λ at µ = 1/12: a = 0.6, 6, 60, and the cohort-scale pools
// a ≈ 6e3 and 6e4. At the paper's target λT0 = 25a the first stable m
// already meets it, so each call is one O(m) Erlang-B walk.
BENCHMARK(BM_MinServers)->Arg(5)->Arg(50)->Arg(500)->Arg(50'000)->Arg(500'000);

void BM_TrafficEquations(benchmark::State& state) {
  const util::Matrix transfer = paper_transfer();
  const std::vector<double> entry =
      workload::ViewingBehavior{}.entry_distribution(kParams.chunks_per_video);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_traffic_equations(transfer, entry, 0.2));
  }
}
BENCHMARK(BM_TrafficEquations);

void BM_ChunkAvailability(benchmark::State& state) {
  const util::Matrix transfer = paper_transfer();
  std::vector<double> population(kParams.chunks_per_video, 12.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_chunk_availability(transfer, population));
  }
}
BENCHMARK(BM_ChunkAvailability);

void BM_P2pSupply(benchmark::State& state) {
  const util::Matrix transfer = paper_transfer();
  const std::vector<double> lambdas = paper_lambdas(0.2);
  const core::ChannelCapacityPlan capacity =
      core::CapacityPlanner(kParams, core::CapacityModel::kChannelPooled)
          .plan(lambdas);
  std::vector<double> population(lambdas.size());
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    population[i] = lambdas[i] * kParams.chunk_duration;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_p2p_supply(
        transfer, capacity, population, 50'000.0, kParams.streaming_rate));
  }
}
BENCHMARK(BM_P2pSupply);

/// With `distinct_p`, each channel's P moves a little of chunk 0's jump
/// mass, as a measured P̂ would, so no two channels share factors.
core::TrackerReport paper_report(int channels, bool distinct_p = false) {
  const workload::ViewingBehavior behavior;
  core::TrackerReport report;
  report.interval_length = 3600.0;
  for (int c = 0; c < channels; ++c) {
    core::ChannelObservation obs;
    obs.arrival_rate = 0.3 / (c + 1);
    obs.transfer = behavior.transfer_matrix(kParams.chunks_per_video);
    if (distinct_p) obs.transfer(0, 2) *= 1.0 - 1e-3 * (c + 1);
    obs.entry = behavior.entry_distribution(kParams.chunks_per_video);
    obs.occupancy.assign(kParams.chunks_per_video, 5.0);
    obs.served_cloud_bandwidth.assign(kParams.chunks_per_video, 1e6);
    obs.mean_peer_uplink = 50'000.0;
    report.channels.push_back(std::move(obs));
  }
  return report;
}

void BM_StorageGreedy400Chunks(benchmark::State& state) {
  core::StorageProblem p;
  p.clusters = core::paper_nfs_clusters();
  p.chunk_bytes = kParams.chunk_bytes();
  p.budget_per_hour = 1.0;
  for (int c = 0; c < 20; ++c) {
    for (int i = 0; i < 20; ++i) {
      p.chunks.push_back({{c, i}, 1e6 / (c + 1)});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_storage_greedy(p));
  }
}
BENCHMARK(BM_StorageGreedy400Chunks);

void BM_VmGreedy400Chunks(benchmark::State& state) {
  core::VmProblem p;
  p.clusters = core::paper_vm_clusters();
  p.vm_bandwidth = kParams.vm_bandwidth;
  p.budget_per_hour = 100.0;
  for (int c = 0; c < 20; ++c) {
    for (int i = 0; i < 20; ++i) {
      p.chunks.push_back({{c, i}, 3e5 / (c + 1)});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_vm_greedy(p));
  }
}
BENCHMARK(BM_VmGreedy400Chunks);

void BM_PackInstances(benchmark::State& state) {
  core::VmProblem p;
  p.clusters = core::paper_vm_clusters();
  p.vm_bandwidth = kParams.vm_bandwidth;
  p.budget_per_hour = 100.0;
  for (int c = 0; c < 20; ++c) {
    for (int i = 0; i < 20; ++i) {
      p.chunks.push_back({{c, i}, 3e5 / (c + 1)});
    }
  }
  const core::VmAllocation allocation = core::solve_vm_greedy(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pack_instances(p, allocation));
  }
}
BENCHMARK(BM_PackInstances);

void BM_ControllerFullPlan(benchmark::State& state) {
  core::DemandEstimatorConfig est;
  est.mode = core::StreamingMode::kP2p;
  core::Controller controller(
      kParams,
      core::ControllerConfig{core::paper_vm_clusters(),
                             core::paper_nfs_clusters(), 100.0, 1.0},
      std::make_unique<core::ModelBasedPolicy>(kParams, est));
  const core::TrackerReport report = paper_report(20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.plan(report));
  }
}
BENCHMARK(BM_ControllerFullPlan)->Unit(benchmark::kMillisecond);

// The hourly case: every channel reports its own measured P̂, so each one
// factors its own systems (BM_ControllerFullPlan's shared P is the
// bootstrap plan).
void BM_ControllerFullPlanDistinctP(benchmark::State& state) {
  core::DemandEstimatorConfig est;
  est.mode = core::StreamingMode::kP2p;
  core::Controller controller(
      kParams,
      core::ControllerConfig{core::paper_vm_clusters(),
                             core::paper_nfs_clusters(), 100.0, 1.0},
      std::make_unique<core::ModelBasedPolicy>(kParams, est));
  const core::TrackerReport report = paper_report(20, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.plan(report));
  }
}
BENCHMARK(BM_ControllerFullPlanDistinctP)->Unit(benchmark::kMillisecond);

// Simulator event engine: the hot schedule→pop→run path, in-place
// cancellation and in-place retime. Callbacks live in a slab of recycled
// slots sized by peak pending events, and the heap of trivially-movable
// {time, seq, slot} entries is indexed by slot, so cancel and retime edit
// one entry and leave no tombstone for the pop loop to skip.
void BM_SimulatorScheduleRun(benchmark::State& state) {
  const long n = state.range(0);
  for (auto _ : state) {
    sim::Simulator sim;
    long fired = 0;
    for (long i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919L) % 100000L),
                      [&fired] { ++fired; });
    }
    sim.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1 << 10)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

void BM_SimulatorCancelHalf(benchmark::State& state) {
  const long n = state.range(0);
  std::vector<sim::EventId> ids;
  for (auto _ : state) {
    sim::Simulator sim;
    long fired = 0;
    ids.clear();
    ids.reserve(static_cast<std::size_t>(n));
    for (long i = 0; i < n; ++i) {
      ids.push_back(sim.schedule_at(static_cast<double>((i * 7919L) % 100000L),
                                    [&fired] { ++fired; }));
    }
    for (long i = 0; i < n; i += 2) sim.cancel(ids[static_cast<std::size_t>(i)]);
    sim.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorCancelHalf)->Arg(1 << 16)->Unit(benchmark::kMicrosecond);

// The ServicePool re-arm pattern: each of `pools` pools owns one pending
// completion timer, and every join, leave or capacity re-split moves it.
// Timers are re-armed 16 times each in random pool order, then drained.
void BM_SimulatorRetime(benchmark::State& state) {
  const long pools = state.range(0);
  constexpr long kRearmsPerPool = 16;
  std::vector<sim::EventId> timers;
  for (auto _ : state) {
    sim::Simulator sim;
    long fired = 0;
    timers.clear();
    for (long p = 0; p < pools; ++p) {
      timers.push_back(sim.schedule_at(static_cast<double>(p % 97),
                                       [&fired] { ++fired; }));
    }
    std::uint64_t lcg = 1;
    for (long r = 0; r < kRearmsPerPool * pools; ++r) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      sim.retime(timers[static_cast<std::size_t>((lcg >> 33) %
                                                 static_cast<std::uint64_t>(pools))],
                 static_cast<double>((lcg >> 44) % 100000) * 1e-3);
    }
    sim.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * pools * kRearmsPerPool);
}
BENCHMARK(BM_SimulatorRetime)->Arg(1 << 12)->Unit(benchmark::kMicrosecond);

// sim::Callback (48-byte small-buffer type erasure) vs the std::function it
// replaced in the callback slab. The capture below is 40 bytes — typical of
// the simulator's real events (this + a handle + a couple of doubles) —
// which fits sim::Callback inline but exceeds std::function's small-object
// buffer, so the Std variant pays one heap allocation per event. The cycle
// measured is exactly what schedule_at does: construct from a lambda, move
// into a slab slot, invoke, destroy.

void BM_CallbackSBOLifecycle(benchmark::State& state) {
  double sink = 0.0;
  const double a = 1.0, b = 2.0, c = 3.0, d = 4.0;
  for (auto _ : state) {
    sim::Callback cb([&sink, a, b, c, d] { sink += a + b + c + d; });
    sim::Callback slot = std::move(cb);  // relocate into the slab
    slot();
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_CallbackSBOLifecycle);

void BM_CallbackSBOLifecycleStd(benchmark::State& state) {
  double sink = 0.0;
  const double a = 1.0, b = 2.0, c = 3.0, d = 4.0;
  for (auto _ : state) {
    std::function<void()> cb([&sink, a, b, c, d] { sink += a + b + c + d; });
    std::function<void()> slot = std::move(cb);
    slot();
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_CallbackSBOLifecycleStd);

// Peer storage: the generation-guarded slab StreamingSystem now uses vs
// the unordered_map<id, Peer> it replaced. The workload mirrors the
// discrete engine's churn — a stable population where every event resolves
// its peer by handle/id and each arrival recycles a departed peer's
// storage. Items processed = peer resolutions. BenchPeer is a 64-byte,
// line-aligned record like vod::Peer, so a resolution touches one line.

struct alignas(64) BenchPeer {
  std::uint64_t id = 0;
  std::uint32_t generation = 0;
  bool live = false;
  double payload[6] = {};
};
static_assert(sizeof(BenchPeer) == 64, "mirrors the 64-byte vod::Peer");

void BM_PeerSlabChurn(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  std::vector<BenchPeer> slab;
  std::vector<std::uint32_t> free_slots;
  std::vector<std::uint64_t> handles;
  std::uint64_t next_id = 1;
  const auto arrive = [&] {
    std::uint32_t slot;
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slab.size());
      slab.emplace_back();
    }
    BenchPeer& peer = slab[slot];
    peer.id = next_id++;
    peer.live = true;
    peer.payload[0] = static_cast<double>(peer.id);
    return (static_cast<std::uint64_t>(peer.generation) << 32) | slot;
  };
  handles.reserve(population);
  for (std::size_t i = 0; i < population; ++i) handles.push_back(arrive());
  double acc = 0.0;
  std::size_t cursor = 0;
  for (auto _ : state) {
    for (const std::uint64_t handle : handles) {
      const auto slot = static_cast<std::uint32_t>(handle & 0xffffffffull);
      const BenchPeer& peer = slab[slot];
      if (peer.live &&
          ((static_cast<std::uint64_t>(peer.generation) << 32) | slot) ==
              handle) {
        acc += peer.payload[0];
      }
    }
    const auto slot = static_cast<std::uint32_t>(handles[cursor] & 0xffffffffull);
    slab[slot].live = false;
    ++slab[slot].generation;
    free_slots.push_back(slot);
    handles[cursor] = arrive();
    cursor = (cursor + 1) % handles.size();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PeerSlabChurn)->Arg(1 << 10)->Arg(1 << 14);

void BM_PeerSlabChurnMap(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  std::unordered_map<std::uint64_t, BenchPeer> peers;
  std::vector<std::uint64_t> ids;
  std::uint64_t next_id = 1;
  const auto arrive = [&] {
    BenchPeer peer;
    peer.id = next_id++;
    peer.live = true;
    peer.payload[0] = static_cast<double>(peer.id);
    peers.emplace(peer.id, peer);
    return peer.id;
  };
  ids.reserve(population);
  for (std::size_t i = 0; i < population; ++i) ids.push_back(arrive());
  double acc = 0.0;
  std::size_t cursor = 0;
  for (auto _ : state) {
    for (const std::uint64_t id : ids) {
      const auto it = peers.find(id);
      if (it != peers.end()) acc += it->second.payload[0];
    }
    peers.erase(ids[cursor]);
    ids[cursor] = arrive();
    cursor = (cursor + 1) % ids.size();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PeerSlabChurnMap)->Arg(1 << 10)->Arg(1 << 14);

// util::Rng sampler cost, new (owned xoshiro256** + specified samplers)
// vs old (std::mt19937_64 + std::*_distribution, kept here as the
// reference). The swap bought cross-toolchain byte-stable streams; these
// benches keep its hot-path cost visible — workload generation draws one
// exponential per arrival and one uniform per chunk hop.

void BM_RngUniform(benchmark::State& state) {
  util::Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void BM_RngUniformStd(benchmark::State& state) {
  std::mt19937_64 engine(42);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(dist(engine));
}
BENCHMARK(BM_RngUniformStd);

void BM_RngUniformInt(benchmark::State& state) {
  util::Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform_int(0, 19));
}
BENCHMARK(BM_RngUniformInt);

void BM_RngUniformIntStd(benchmark::State& state) {
  std::mt19937_64 engine(42);
  std::uniform_int_distribution<int> dist(0, 19);
  for (auto _ : state) benchmark::DoNotOptimize(dist(engine));
}
BENCHMARK(BM_RngUniformIntStd);

void BM_RngExponential(benchmark::State& state) {
  util::Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.exponential(4.0));
}
BENCHMARK(BM_RngExponential);

void BM_RngExponentialStd(benchmark::State& state) {
  std::mt19937_64 engine(42);
  std::exponential_distribution<double> dist(0.25);
  for (auto _ : state) benchmark::DoNotOptimize(dist(engine));
}
BENCHMARK(BM_RngExponentialStd);

void BM_RngNormal(benchmark::State& state) {
  util::Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal(0.0, 1.0));
}
BENCHMARK(BM_RngNormal);

void BM_RngNormalStd(benchmark::State& state) {
  std::mt19937_64 engine(42);
  std::normal_distribution<double> dist(0.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(dist(engine));
}
BENCHMARK(BM_RngNormalStd);

void BM_RngWeightedIndex(benchmark::State& state) {
  util::Rng rng(42);
  const std::vector<double> weights{1.0, 3.0, 6.0, 2.0, 8.0};
  for (auto _ : state) benchmark::DoNotOptimize(rng.weighted_index(weights));
}
BENCHMARK(BM_RngWeightedIndex);

void BM_RngDerive(benchmark::State& state) {
  const util::Rng root(42);
  std::uint64_t id = 0;
  for (auto _ : state) {
    util::Rng derived = root.derive(7, id++);
    benchmark::DoNotOptimize(derived.next_u64());
  }
}
BENCHMARK(BM_RngDerive);

void BM_ServicePoolChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    long completions = 0;
    vod::ServicePool pool(sim, 1'250'000.0,
                          [&](const vod::ServicePool::Completion&) {
                            ++completions;
                          });
    pool.set_capacity(5e6, 5e6);
    for (int i = 0; i < 200; ++i) {
      pool.add_job(15e6, static_cast<std::uint64_t>(i));
    }
    sim.run_all();
    benchmark::DoNotOptimize(completions);
  }
}
BENCHMARK(BM_ServicePoolChurn)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
