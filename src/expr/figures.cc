#include "expr/figures.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>

#include "expr/ablations.h"
#include "expr/paper.h"
#include "expr/runner.h"
#include "profile/profile.h"
#include "sweep/goldens.h"
#include "util/check.h"
#include "util/csv.h"
#include "vod/deployment.h"

namespace cloudmedia::expr {

void print_series_table(const std::string& title,
                        const std::vector<SeriesColumn>& columns, double t0,
                        double t_end, double bucket_seconds,
                        const std::string& csv_path) {
  CM_EXPECTS(!columns.empty());
  CM_EXPECTS(bucket_seconds > 0.0);
  CM_EXPECTS(t_end > t0);

  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%10s", "hour");
  for (const SeriesColumn& col : columns) std::printf("  %18s", col.name.c_str());
  std::printf("\n");

  util::ensure_parent_directory(csv_path);
  util::CsvWriter csv(csv_path);
  std::vector<std::string> header{"hour"};
  for (const SeriesColumn& col : columns) header.push_back(col.name);
  csv.write_header(header);

  const int buckets =
      static_cast<int>(std::ceil((t_end - t0) / bucket_seconds));
  for (int b = 0; b < buckets; ++b) {
    const double w0 = t0 + b * bucket_seconds;
    const double w1 = std::min(t_end, w0 + bucket_seconds);
    std::printf("%10.1f", (w0 - t0) / 3600.0);
    std::vector<double> row{(w0 - t0) / 3600.0};
    for (const SeriesColumn& col : columns) {
      const double v = col.series->mean_over(w0, w1);
      std::printf("  %18.3f", v);
      row.push_back(v);
    }
    std::printf("\n");
    csv.write_row(row);
  }
}

void print_paper_comparison(const std::string& label, double measured,
                            double paper_value, const std::string& unit) {
  std::printf("%-46s measured %10.3f %-6s | paper %10.3f %-6s\n", label.c_str(),
              measured, unit.c_str(), paper_value, unit.c_str());
}

namespace {

/// Lowest hourly mean of `series` from `t0` on (Fig. 5's quality dips,
/// Fig. 10's cost floor).
double min_hourly(const util::TimeSeries& series, double t0) {
  const util::TimeSeries hourly = series.resample(t0, 3600.0);
  double lowest = std::numeric_limits<double>::infinity();
  for (double v : hourly.values()) lowest = std::min(lowest, v);
  return lowest;
}

// ---------------------------------------------- Figs. 6/7: size scatter

struct ScatterPoint {
  double size;
  double value;
};

/// The C/S (cell 0) and P2P (cell 1) scatters of channel `metric` against
/// channel size: one point per channel-hour of the measurement window in
/// which the channel had viewers, sorted by size. Written as the figure's
/// table data with `value_column` as the value header.
std::array<std::vector<ScatterPoint>, 2> mode_scatters(
    const FigureRun& run, util::TimeSeries vod::ChannelSeries::*metric,
    const char* value_column) {
  util::ensure_parent_directory(run.series_csv);
  util::CsvWriter csv(run.series_csv);
  csv.write_header({"mode", "channel_size", value_column});
  std::array<std::vector<ScatterPoint>, 2> scatters;
  for (std::size_t k = 0; k < 2; ++k) {
    const ExperimentResult& r = run.result.results[k];
    std::vector<ScatterPoint>& points = scatters[k];
    for (const vod::ChannelSeries& channel : r.metrics.channels) {
      for (double t = r.measure_start; t + 3600.0 <= r.measure_end;
           t += 3600.0) {
        const double size = channel.size.mean_over(t, t + 3600.0);
        if (size > 0.0) {
          points.push_back({size, (channel.*metric).mean_over(t, t + 3600.0)});
        }
      }
    }
    std::sort(points.begin(), points.end(),
              [](const ScatterPoint& a, const ScatterPoint& b) {
                return a.size < b.size;
              });
    for (const ScatterPoint& p : points) {
      csv.write_row(std::vector<std::string>{k == 0 ? "cs" : "p2p",
                                             std::to_string(p.size),
                                             std::to_string(p.value)});
    }
  }
  return scatters;
}

/// Calls `row(lo, hi, samples, mean, min)` for each nonempty fixed
/// channel-size bucket of the scatter; the open top bucket reports hi 1000.
template <typename Row>
void for_each_size_bucket(const std::vector<ScatterPoint>& points, Row row) {
  const double edges[] = {0, 25, 50, 100, 200, 400, 800, 1e9};
  for (std::size_t b = 0; b + 1 < std::size(edges); ++b) {
    double sum = 0.0;
    double lowest = std::numeric_limits<double>::infinity();
    int n = 0;
    for (const ScatterPoint& p : points) {
      if (p.size >= edges[b] && p.size < edges[b + 1]) {
        sum += p.value;
        lowest = std::min(lowest, p.value);
        ++n;
      }
    }
    if (n > 0) row(edges[b], std::min(edges[b + 1], 1000.0), n, sum / n, lowest);
  }
}

// ----------------------------------- Figs. 8/9: representative channels

/// For each of the paper's representative channel sizes, the channel whose
/// mean size is closest (each channel picked at most once), named
/// "ch<index> (avg <size>)" with its `metric` series; printed as an hourly
/// table and written as the figure's table data.
std::vector<SeriesColumn> representative_series(
    const FigureRun& run, util::TimeSeries vod::ChannelSeries::*metric,
    const std::string& title) {
  const ExperimentResult& r = run.result.results[0];  // mode=p2p
  std::vector<double> sizes;
  for (const vod::ChannelSeries& channel : r.metrics.channels) {
    sizes.push_back(channel.size.mean_over(r.measure_start, r.measure_end));
  }
  std::vector<bool> taken(sizes.size(), false);
  std::vector<SeriesColumn> reps;
  for (double target : paper::kRepresentativeChannelSizes) {
    std::size_t best = 0;
    double best_gap = 1e300;
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      if (!taken[c] && std::abs(sizes[c] - target) < best_gap) {
        best_gap = std::abs(sizes[c] - target);
        best = c;
      }
    }
    taken[best] = true;
    reps.push_back({"ch" + std::to_string(best) + " (avg " +
                        std::to_string(static_cast<int>(sizes[best])) + ")",
                    &(r.metrics.channels[best].*metric)});
  }
  print_series_table(title, reps, r.measure_start, r.measure_end, 3600.0,
                     run.series_csv);
  return reps;
}

// ------------------------------------------------------------- reports

// Fig. 4: hourly reserved vs used cloud bandwidth, C/S vs P2P. Paper shape:
// reserved tracks (and stays above) used through the diurnal swings and
// flash crowds; the P2P curves sit about an order of magnitude lower.
void report_fig04(const FigureRun& run) {
  std::printf("Figure 4: cloud capacity provisioning vs usage "
              "(%.0f h measured after %.0f h warmup, seed %llu)\n",
              run.spec.measure_hours, run.spec.warmup_hours,
              run.seed());
  const ExperimentResult& cs = run.result.results[0];   // mode=cs
  const ExperimentResult& p2p = run.result.results[1];  // mode=p2p

  print_series_table("Fig. 4 series (Mbps, hourly means)",
                     {{"C/S reserved", &cs.metrics.reserved_mbps},
                      {"C/S used", &cs.metrics.used_cloud_mbps},
                      {"P2P reserved", &p2p.metrics.reserved_mbps},
                      {"P2P used", &p2p.metrics.used_cloud_mbps}},
                     cs.measure_start, cs.measure_end, 3600.0, run.series_csv);

  std::printf("\n-- summary over the measurement window --\n");
  std::printf("%-34s %12s %12s\n", "", "C/S", "P2P");
  std::printf("%-34s %12.1f %12.1f\n", "mean reserved (Mbps)",
              cs.mean_reserved_mbps(), p2p.mean_reserved_mbps());
  std::printf("%-34s %12.1f %12.1f\n", "mean used (Mbps)",
              cs.mean_used_cloud_mbps(), p2p.mean_used_cloud_mbps());
  std::printf("%-34s %12.1f %12.1f\n", "peak reserved (Mbps)",
              cs.metrics.reserved_mbps.max_value(),
              p2p.metrics.reserved_mbps.max_value());
  std::printf("%-34s %12.3f %12.3f\n", "reserved >= used (fraction of time)",
              cs.reserved_covers_used_fraction(),
              p2p.reserved_covers_used_fraction());
  std::printf("%-34s %12.1f %12.1f\n", "avg concurrent users",
              cs.mean_concurrent_users(), p2p.mean_concurrent_users());
  std::printf("%-34s %12s %12.1f\n", "peer-served bandwidth (Mbps)", "-",
              p2p.mean_used_peer_mbps());
  std::printf("\nC/S / P2P reserved-bandwidth ratio: %.1fx "
              "(paper Fig. 4 shows roughly an order of magnitude)\n",
              cs.mean_reserved_mbps() / p2p.mean_reserved_mbps());
  std::printf("paper context: curves oscillate in the 0-%0.0f Mbps band over "
              "~100 h with provisioning above usage throughout\n",
              paper::kFig4MaxMbps);
}

// Fig. 5: fraction of users with smooth playback in the past 5 minutes.
// Paper: C/S averages 0.97 and P2P 0.95, with dips at the flash crowds.
void report_fig05(const FigureRun& run) {
  std::printf("Figure 5: average streaming quality (%.0f h, seed %llu)\n",
              run.spec.measure_hours, run.seed());
  const ExperimentResult& cs = run.result.results[0];   // mode=cs
  const ExperimentResult& p2p = run.result.results[1];  // mode=p2p

  print_series_table("Fig. 5 series (smooth-playback fraction, hourly)",
                     {{"C/S quality", &cs.metrics.quality},
                      {"P2P quality", &p2p.metrics.quality}},
                     cs.measure_start, cs.measure_end, 3600.0, run.series_csv);

  std::printf("\n-- paper comparison --\n");
  print_paper_comparison("C/S average streaming quality", cs.mean_quality(),
                         paper::kQualityClientServer, "");
  print_paper_comparison("P2P average streaming quality", p2p.mean_quality(),
                         paper::kQualityP2p, "");
  std::printf("worst hourly quality: C/S %.3f | P2P %.3f "
              "(paper's curves dip at the flash crowds)\n",
              min_hourly(cs.metrics.quality, cs.measure_start),
              min_hourly(p2p.metrics.quality, p2p.measure_start));
  std::printf("late retrievals: C/S %ld/%ld | P2P %ld/%ld\n",
              cs.metrics.counters.late_downloads,
              cs.metrics.counters.chunk_downloads,
              p2p.metrics.counters.late_downloads,
              p2p.metrics.counters.chunk_downloads);
}

// Fig. 6: per-channel quality against channel size, one day. Paper shape:
// uniformly high regardless of size; the P2P scatter "significantly
// overlaps" the C/S one.
void report_fig06(const FigureRun& run) {
  std::printf("Figure 6: channel streaming quality vs channel size "
              "(%.0f h, 20 channels, seed %llu)\n",
              run.spec.measure_hours, run.seed());
  const auto scatters =
      mode_scatters(run, &vod::ChannelSeries::quality, "quality");
  const char* labels[] = {"C/S (the paper's Fig. 6)",
                          "P2P (paper: overlaps C/S, slightly worse)"};
  for (std::size_t k = 0; k < 2; ++k) {
    std::printf("\n%s: %zu (size, quality) samples, bucketed by channel size\n",
                labels[k], scatters[k].size());
    std::printf("%16s %10s %12s %12s\n", "size bucket", "samples",
                "mean quality", "min quality");
    for_each_size_bucket(scatters[k], [](double lo, double hi, int n,
                                          double mean, double min) {
      std::printf("%7.0f - %6.0f %10d %12.3f %12.3f\n", lo, hi, n, mean, min);
    });
  }

  const std::vector<ScatterPoint>& cs = scatters[0];
  double overall = 0.0;
  for (const ScatterPoint& p : cs) overall += p.value;
  std::printf("\nC/S scatter mean quality %.3f across sizes %.0f-%.0f "
              "(paper: \"generally good regardless of channel sizes\")\n",
              cs.empty() ? 1.0 : overall / cs.size(),
              cs.empty() ? 0.0 : cs.front().size,
              cs.empty() ? 0.0 : cs.back().size);
}

// Fig. 7: per-channel provisioned cloud bandwidth against channel size.
// Paper shape: C/S grows linearly with size; P2P stays low and nearly flat
// ("scales very well") because peers absorb the growth.
void report_fig07(const FigureRun& run) {
  std::printf("Figure 7: provisioned cloud bandwidth vs channel size "
              "(%.0f h, seed %llu)\n",
              run.spec.measure_hours, run.seed());
  const auto scatters = mode_scatters(run, &vod::ChannelSeries::provisioned_mbps,
                                      "provisioned_mbps");
  const char* labels[] = {"C/S", "P2P"};
  util::LinearFit fits[2];
  for (std::size_t k = 0; k < 2; ++k) {
    std::printf("\n%s\n%16s %10s %18s\n", labels[k], "size bucket", "samples",
                "mean Mbps provisioned");
    for_each_size_bucket(scatters[k], [](double lo, double hi, int n,
                                          double mean, double /*min*/) {
      std::printf("%7.0f - %6.0f %10d %18.1f\n", lo, hi, n, mean);
    });
    std::vector<double> sizes, mbps;
    for (const ScatterPoint& p : scatters[k]) {
      sizes.push_back(p.size);
      mbps.push_back(p.value);
    }
    fits[k] = util::linear_fit(sizes, mbps);
  }

  std::printf("\nlinear fits (Mbps per user):\n");
  std::printf("  C/S : slope %.4f, intercept %.2f, R^2 %.3f "
              "(paper: linear growth; streaming rate r = 0.4 Mbps/user)\n",
              fits[0].slope, fits[0].intercept, fits[0].r2);
  std::printf("  P2P : slope %.4f, intercept %.2f, R^2 %.3f "
              "(paper: \"scales very well\" — near-flat)\n",
              fits[1].slope, fits[1].intercept, fits[1].r2);
  std::printf("  slope ratio C/S / P2P = %.1fx\n",
              fits[0].slope / std::max(1e-9, fits[1].slope));
}

// Fig. 8: aggregate storage utility Σ_i u_f Δ_i x_if of 4 representative
// P2P channels over a day. Paper shape: utility follows popularity and
// the diurnal swing — the storage-rental heuristic adapts.
void report_fig08(const FigureRun& run) {
  std::printf("Figure 8: aggregate storage utility of 4 representative "
              "channels (P2P, %.0f h)\n", run.spec.measure_hours);
  const ExperimentResult& r = run.result.results[0];
  const std::vector<SeriesColumn> reps = representative_series(
      run, &vod::ChannelSeries::storage_utility,
      "Fig. 8 series (aggregate storage utility, hourly)");

  std::printf("\npaper targets avg sizes {60, 100, 200, 600}; utility ranks "
              "with popularity and follows the diurnal swing:\n");
  for (const SeriesColumn& rep : reps) {
    std::printf("  %-18s mean %12.3g  peak %12.3g\n", rep.name.c_str(),
                rep.series->mean_over(r.measure_start, r.measure_end),
                rep.series->max_value());
  }
}

// Fig. 9: aggregate VM utility Σ_i ũ_v z_iv of the same 4 channels. Paper
// shape: the popular channels hold more (and better) VMs all day.
void report_fig09(const FigureRun& run) {
  std::printf("Figure 9: aggregate VM utility of 4 representative channels "
              "(P2P, %.0f h)\n", run.spec.measure_hours);
  const ExperimentResult& r = run.result.results[0];
  const std::vector<SeriesColumn> reps =
      representative_series(run, &vod::ChannelSeries::vm_utility,
                            "Fig. 9 series (aggregate VM utility, hourly)");

  std::printf("\nVM utility orders by channel popularity (paper: larger "
              "channels sustain higher utility all day):\n");
  double prev = 1e300;
  bool ordered = true;
  for (std::size_t k = reps.size(); k-- > 0;) {  // big -> small target
    const double mean = reps[k].series->mean_over(r.measure_start, r.measure_end);
    std::printf("  %-18s mean %8.3f\n", reps[k].name.c_str(), mean);
    if (mean > prev + 1e-9) ordered = false;
    prev = mean;
  }
  std::printf("popularity ordering preserved: %s\n", ordered ? "yes" : "no");
}

// Fig. 10 (+ Sec. VI-C storage cost): VM rental cost over a day. Paper: C/S
// averages ~$48/h and swings with the load, P2P ~$4.27/h; NFS storage is
// ~$0.018/day — the bill is all VM rental.
void report_fig10(const FigureRun& run) {
  std::printf("Figure 10: overall VM rental cost (%.0f h, seed %llu)\n",
              run.spec.measure_hours, run.seed());
  const ExperimentResult& cs = run.result.results[0];   // mode=cs
  const ExperimentResult& p2p = run.result.results[1];  // mode=p2p

  print_series_table("Fig. 10 series (VM rental cost, $/h, hourly)",
                     {{"C/S cost", &cs.metrics.vm_cost_rate},
                      {"P2P cost", &p2p.metrics.vm_cost_rate}},
                     cs.measure_start, cs.measure_end, 3600.0, run.series_csv);

  std::printf("\n-- paper comparison --\n");
  print_paper_comparison("C/S average VM rental cost", cs.mean_vm_cost_rate(),
                         paper::kVmCostClientServer, "$/h");
  print_paper_comparison("P2P average VM rental cost", p2p.mean_vm_cost_rate(),
                         paper::kVmCostP2p, "$/h");
  std::printf("C/S / P2P cost ratio: %.1fx (paper: %.1fx)\n",
              cs.mean_vm_cost_rate() / p2p.mean_vm_cost_rate(),
              paper::kVmCostClientServer / paper::kVmCostP2p);

  const double measured_days = (cs.measure_end - cs.measure_start) / 86400.0;
  print_paper_comparison("NFS storage cost", cs.mean_storage_cost_rate() * 24.0,
                         paper::kStorageCostPerDay, "$/day");
  std::printf("\ntotals over %.1f day(s): C/S $%.2f VM + $%.4f storage | "
              "P2P $%.2f VM + $%.4f storage\n",
              measured_days, cs.vm_cost_total, cs.storage_cost_total,
              p2p.vm_cost_total, p2p.storage_cost_total);
  std::printf("cost variability (C/S): min $%.2f/h, max $%.2f/h — follows the "
              "user-population dynamics as in the paper\n",
              min_hourly(cs.metrics.vm_cost_rate, cs.measure_start),
              cs.metrics.vm_cost_rate.max_value());
}

// Fig. 11 (+ Sec. VI-D): P2P quality at peer-uplink / streaming-rate ratios
// 0.9 / 1.0 / 1.2; the paper reports 0.95 / 0.95 / 1.0 and notes (plot
// omitted) that stronger peers need less cloud, printed here too. The
// ratio axis is workload-shaping, so each column draws its own peers.
void report_fig11(const FigureRun& run) {
  const sweep::SweepResult& result = run.result;
  const std::vector<std::string>& ratios = run.spec.grid.axes().back().values;
  std::printf("Figure 11: P2P streaming quality vs peer bandwidth "
              "sufficiency (%.0f h per ratio, seed %llu)\n",
              run.spec.measure_hours, run.seed());

  std::vector<SeriesColumn> columns;
  for (std::size_t k = 0; k < ratios.size(); ++k) {
    columns.push_back({"ratio " + ratios[k], &result.results[k].metrics.quality});
  }
  print_series_table("Fig. 11 series (quality, 4-hour buckets)", columns,
                     result.results[0].measure_start,
                     result.results[0].measure_end, 4.0 * 3600.0,
                     run.series_csv);

  // The preset's frozen ratio axis is the paper's, value for value.
  CM_EXPECTS(ratios.size() == paper::kFig11Ratios.size());
  std::printf("\n-- paper comparison (avg streaming quality) --\n");
  for (std::size_t k = 0; k < ratios.size(); ++k) {
    CM_EXPECTS(std::stod(ratios[k]) == paper::kFig11Ratios[k]);
    print_paper_comparison("quality at " + columns[k].name,
                           result.runs[k].mean_quality,
                           paper::kFig11Quality[k], "");
  }

  std::printf("\n-- Sec. VI-D companion (cloud demand falls as peers get "
              "stronger) --\n");
  std::printf("%-12s %16s %16s %14s\n", "ratio", "reserved (Mbps)",
              "cloud used (Mbps)", "VM cost ($/h)");
  for (std::size_t k = 0; k < result.runs.size(); ++k) {
    std::printf("%-12s %16.1f %16.1f %14.2f\n", ratios[k].c_str(),
                result.runs[k].mean_reserved_mbps,
                result.runs[k].mean_used_cloud_mbps,
                result.results[k].mean_vm_cost_rate());
  }
  std::printf("quality is \"satisfactory in all cases\" (paper) — cloud "
              "provisioning absorbs whatever the overlay cannot supply.\n");
}

}  // namespace

const std::vector<Figure>& paper_figures() {
  // Presets are the grids `tool_sweep --golden=<preset>` replays at
  // downsized horizons; policy-only axes share one derived seed, so C/S and
  // P2P (or the ablated policies) face the same viewers. The ablation
  // reports live in src/expr/ablations.cc.
  static const std::vector<Figure> figures = {
      {"fig04", "fig04_provisioning", 4.0, 100.0, report_fig04},
      {"fig05", "fig05_quality", 4.0, 100.0, report_fig05},
      {"fig06", "fig06_modes", 4.0, 24.0, report_fig06},
      {"fig07", "fig07_bandwidth_scaling", 4.0, 24.0, report_fig07},
      {"fig08", "fig08_storage_utility", 4.0, 24.0, report_fig08},
      {"fig09", "fig09_vm_utility", 4.0, 24.0, report_fig09},
      {"fig10", "fig10_vm_cost", 4.0, 24.0, report_fig10},
      {"fig11", "fig11_peer_sufficiency", 4.0, 72.0, report_fig11},
      {"ablation_strategies", "ablation_strategies", 4.0, 48.0,
       report_ablation_strategies},
      {"ablation_pooling", "ablation_pooling", 2.0, 12.0,
       report_ablation_pooling},
      {"ablation_boot_delay", "ablation_boot_delay", 2.0, 24.0,
       report_ablation_boot_delay},
      {"ablation_chunk_size", "ablation_chunk_size", 2.0, 16.0,
       report_ablation_chunk_size},
      {"ablation_geo", "ablation_geo", 4.0, 24.0, report_ablation_geo},
      {"ablation_hetero", "ablation_hetero", 2.0, 12.0,
       report_ablation_hetero},
      {"ablation_p2p_cap", "ablation_p2p_cap", 2.0, 12.0,
       report_ablation_p2p_cap},
      {"ablation_prediction", "ablation_prediction", 4.0, 30.0,
       report_ablation_prediction},
  };
  return figures;
}

const Figure& paper_figure(const std::string& name) {
  std::string valid;
  for (const Figure& figure : paper_figures()) {
    if (name == figure.name) return figure;
    valid += std::string(" ") + figure.name;
  }
  throw util::PreconditionError("unknown figure '" + name +
                                "' (valid figures:" + valid + ")");
}

sweep::SweepSpec figure_spec(const Figure& figure, const Flags& flags) {
  profile::Profile prof = sweep::golden_preset(figure.preset).profile;
  prof.warmup_hours = figure.warmup_hours;
  prof.measure_hours = figure.measure_hours;
  sweep::SweepSpec spec = sweep::SweepSpec::from_profile(prof);
  spec.keep_results = true;  // every report reads the series
  spec.apply_flags(flags);
  return spec;
}

std::size_t run_paper_figures(const Flags& flags) {
  flags.require_known(
      {"figure", "hours", "warmup", "seed", "threads", "out-dir"});
  std::vector<const Figure*> selected;
  if (flags.has("figure")) {
    selected.push_back(&paper_figure(flags.get("figure", std::string())));
  } else {
    for (const Figure& figure : paper_figures()) selected.push_back(&figure);
  }
  const std::string out_dir = flags.get("out-dir", std::string("results"));

  // Entries whose specs hash equal share one run, released after its last
  // reader (at paper horizons fig06/07/10's sweep is the only one held
  // while another runs).
  std::vector<sweep::SweepSpec> specs;
  std::map<std::string, std::size_t> readers;  // by spec_hash()
  for (const Figure* figure : selected) {
    specs.push_back(figure_spec(*figure, flags));
    ++readers[specs.back().spec_hash()];
  }
  std::map<std::string, sweep::SweepResult> sweeps;  // by spec_hash()
  std::size_t runs = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const std::string hash = specs[i].spec_hash();
    const auto [it, fresh] = sweeps.try_emplace(hash);
    if (fresh) {
      it->second = sweep::SweepRunner::run(specs[i]);
      ++runs;
    }
    const std::string base = out_dir + "/" + selected[i]->name;
    // Only a figure's report writes table data; a stale file must not pass
    // for this run's.
    const std::string series_csv = base + ".series.csv";
    std::filesystem::remove(series_csv);
    selected[i]->report({specs[i], it->second, series_csv});
    it->second.write(base);
    std::printf("[csv]  %s.csv\n[json] %s.json\n", base.c_str(), base.c_str());
    if (std::filesystem::exists(series_csv)) {
      std::printf("[csv]  %s\n", series_csv.c_str());
    }
    if (--readers[hash] == 0) sweeps.erase(it);
  }
  return runs;
}

}  // namespace cloudmedia::expr
