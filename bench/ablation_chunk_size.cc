// Ablation: chunk size (the paper's footnote 3). "The selection of chunk
// size should aim to minimize the unnecessary number of times of VM
// switching during users' playback, while considering the average length
// of continuous playback between two VCR operations as well as the actual
// transmission efficiency. We have experimented with different chunk sizes
// and identified the one presented here [T0 = 5 min] as the best."
//
// Runs on the sweep engine: the ablation_chunk_size golden preset's
// chunk_minutes axis at paper horizons. The chunk_minutes applier
// (sweep/param_grid.cc) sweeps T0 over a 100-minute video (J = 100 / T0)
// while keeping the physical seek (15 min) and departure (37 min)
// processes fixed, so the per-chunk jump/leave probabilities follow the
// competing-risks formula. Other T0 values:
// `tool_sweep --scenario=baseline_diurnal --grid mode=p2p --grid
//  chunk_minutes=1,2.5,5`.
//
// Flags: --hours=16 --warmup=2 --seed=42 --threads=<hardware>
//        --out=results/ablation_chunk_size

#include <cmath>
#include <cstdio>
#include <string>

#include "expr/flags.h"
#include "expr/runner.h"
#include "profile/profile.h"
#include "sweep/goldens.h"
#include "sweep/sweep_runner.h"

using namespace cloudmedia;

int main(int argc, char** argv) {
  const expr::Flags flags(argc, argv);
  flags.require_known({"hours", "warmup", "seed", "threads", "out"});

  profile::Profile prof = sweep::golden_preset("ablation_chunk_size").profile;
  prof.warmup_hours = 2.0;
  prof.measure_hours = 16.0;
  sweep::SweepSpec spec = sweep::SweepSpec::from_profile(prof);
  spec.keep_results = true;  // VM-boot and late-retrieval counters per row
  spec.apply_flags(flags);

  std::printf("Ablation: chunk size T0 (P2P, 100-minute videos, %.0f h per "
              "point, seed %llu)\n",
              spec.measure_hours,
              static_cast<unsigned long long>(spec.base_seed));
  std::printf("\n%8s %6s %10s %9s %10s %10s %10s %12s\n", "T0 (min)", "J",
              "chunk MB", "quality", "reserved", "$/h", "VM boots",
              "late frac");

  const sweep::SweepResult result = sweep::SweepRunner::run(spec);
  for (std::size_t k = 0; k < result.runs.size(); ++k) {
    const sweep::RunSummary& run = result.runs[k];
    const expr::ExperimentResult& r = result.results[k];
    const double t0_minutes = std::stod(run.point.coords.back().second);
    const int chunks = static_cast<int>(std::lround(100.0 / t0_minutes));
    core::VodParameters vod;
    vod.chunk_duration = t0_minutes * 60.0;
    vod.chunks_per_video = chunks;
    const double late_fraction =
        r.metrics.counters.chunk_downloads > 0
            ? static_cast<double>(r.metrics.counters.late_downloads) /
                  static_cast<double>(r.metrics.counters.chunk_downloads)
            : 0.0;
    std::printf("%8.1f %6d %10.1f %9.3f %7.0f Mb %10.2f %10ld %12.4f\n",
                t0_minutes, chunks, vod.chunk_bytes() / 1e6, run.mean_quality,
                run.mean_reserved_mbps, r.mean_vm_cost_rate(), r.vm_boots,
                late_fraction);
  }

  const std::string out =
      flags.get("out", std::string("results/ablation_chunk_size"));
  result.write(out);
  std::printf("\n[csv]  %s.csv\n[json] %s.json\n", out.c_str(), out.c_str());

  std::printf(
      "\nreading: small chunks multiply queues (finer control, more VM\n"
      "switching and per-chunk headroom); large chunks reduce switching but\n"
      "make each retrieval heavier and seeks wasteful — the paper's 5-minute\n"
      "choice sits in the flat middle of the quality/cost trade-off.\n");
  return 0;
}
