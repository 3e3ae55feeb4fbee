#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/distributions.h"
#include "workload/scenario.h"
#include "workload/viewing.h"

namespace cloudmedia::workload {
namespace {

// ----------------------------------------------------------------- zipf

TEST(Zipf, WeightsNormalizedAndDecreasing) {
  const std::vector<double> w = zipf_weights(20, 1.0);
  double total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    total += w[i];
    if (i > 0) {
      EXPECT_LT(w[i], w[i - 1]);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, ExponentZeroIsUniform) {
  const std::vector<double> w = zipf_weights(4, 0.0);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 0.25);
}

TEST(Zipf, KnownRatios) {
  const std::vector<double> w = zipf_weights(3, 1.0);
  EXPECT_NEAR(w[0] / w[1], 2.0, 1e-12);
  EXPECT_NEAR(w[0] / w[2], 3.0, 1e-12);
}

// -------------------------------------------------------- bounded pareto

TEST(BoundedPareto, SamplesWithinBounds) {
  BoundedPareto dist(22'500.0, 1'250'000.0, 3.0);  // paper's uplink range
  util::Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const double x = dist.sample(rng);
    EXPECT_GE(x, dist.lower());
    EXPECT_LE(x, dist.upper());
  }
}

TEST(BoundedPareto, EmpiricalMeanMatchesAnalytic) {
  BoundedPareto dist(22'500.0, 1'250'000.0, 3.0);
  util::Rng rng(6);
  util::SummaryStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(dist.sample(rng));
  EXPECT_NEAR(stats.mean() / dist.mean(), 1.0, 0.02);
}

TEST(BoundedPareto, PaperParametersMeanIsBelowStreamingRate) {
  // The inconsistency README "Modelling choices" documents: the paper's
  // literal Pareto parameters give a mean uplink of ~0.27 Mbps = 0.67 r.
  BoundedPareto dist(22'500.0, 1'250'000.0, 3.0);
  EXPECT_NEAR(dist.mean() / 50'000.0, 0.675, 0.01);
}

TEST(BoundedPareto, ScaledToMeanHitsTarget) {
  BoundedPareto dist(22'500.0, 1'250'000.0, 3.0);
  const BoundedPareto scaled = dist.scaled_to_mean(50'000.0);
  EXPECT_NEAR(scaled.mean(), 50'000.0, 1e-6);
  EXPECT_DOUBLE_EQ(scaled.shape(), dist.shape());
  // Bound ratio preserved.
  EXPECT_NEAR(scaled.upper() / scaled.lower(), dist.upper() / dist.lower(),
              1e-9);
}

TEST(BoundedPareto, ShapeOneSpecialCase) {
  BoundedPareto dist(1.0, 10.0, 1.0);
  // E[X] = ln(H/L) / (1 - L/H) for k = 1.
  EXPECT_NEAR(dist.mean(), std::log(10.0) / 0.9, 1e-9);
}

TEST(BoundedPareto, RejectsBadParameters) {
  EXPECT_THROW(BoundedPareto(0.0, 1.0, 3.0), util::PreconditionError);
  EXPECT_THROW(BoundedPareto(2.0, 1.0, 3.0), util::PreconditionError);
  EXPECT_THROW(BoundedPareto(1.0, 2.0, 0.0), util::PreconditionError);
}

// ---------------------------------------------------------------- diurnal

TEST(Diurnal, FlatIsConstantOne) {
  const DiurnalPattern flat = DiurnalPattern::flat();
  for (int h = 0; h < 48; ++h) {
    EXPECT_DOUBLE_EQ(flat.multiplier(h * 3600.0), 1.0);
  }
}

TEST(Diurnal, PaperDefaultHasTwoPeaks) {
  const DiurnalPattern p = DiurnalPattern::paper_default();
  const double noon = p.multiplier(12.5 * 3600.0);
  const double evening = p.multiplier(20.5 * 3600.0);
  const double early = p.multiplier(4.0 * 3600.0);
  EXPECT_GT(noon, early * 1.5);
  EXPECT_GT(evening, noon);  // evening crowd is the larger one
}

TEST(Diurnal, PeriodicOver24h) {
  const DiurnalPattern p = DiurnalPattern::paper_default();
  for (int h = 0; h < 24; ++h) {
    EXPECT_NEAR(p.multiplier(h * 3600.0), p.multiplier((h + 24) * 3600.0), 1e-12);
  }
}

TEST(Diurnal, MeanMultiplierNearOne) {
  EXPECT_NEAR(DiurnalPattern::paper_default().mean_multiplier(), 1.0, 0.1);
}

TEST(Diurnal, MaxBoundsAllSamples) {
  const DiurnalPattern p = DiurnalPattern::paper_default();
  const double cap = p.max_multiplier();
  for (int m = 0; m < 24 * 60; ++m) {
    EXPECT_LE(p.multiplier(m * 60.0), cap + 1e-12);
  }
}

TEST(Diurnal, CachedMaxEqualsTheMinuteScan) {
  // The maximum is scanned once at construction; copies carry it.
  for (const DiurnalPattern& p :
       {DiurnalPattern::paper_default(), DiurnalPattern::flat(),
        DiurnalPattern::paper_default().shifted(-7.5)}) {
    double scan = p.base();
    for (int minute = 0; minute < 24 * 60; ++minute) {
      scan = std::max(scan, p.multiplier(minute * 60.0));
    }
    EXPECT_EQ(p.max_multiplier(), scan);
    const DiurnalPattern copy = p;
    EXPECT_EQ(copy.max_multiplier(), scan);
  }
}

// ---------------------------------------------------------------- arrivals

TEST(PoissonArrivals, HomogeneousRateRecovered) {
  PoissonArrivals stream([](double) { return 2.0; }, 2.0, util::Rng(7));
  double t = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) t = stream.next_after(t);
  EXPECT_NEAR(n / t, 2.0, 0.05);
}

TEST(PoissonArrivals, ThinningMatchesTimeVaryingRate) {
  // Rate 1 in the first half-day, 3 in the second.
  const auto rate = [](double t) {
    return std::fmod(t, 86400.0) < 43200.0 ? 1.0 : 3.0;
  };
  PoissonArrivals stream(rate, 3.0, util::Rng(8));
  double t = 0.0;
  long first = 0, second = 0;
  while (t < 86400.0 * 20) {
    t = stream.next_after(t);
    (std::fmod(t, 86400.0) < 43200.0 ? first : second)++;
  }
  EXPECT_NEAR(static_cast<double>(second) / first, 3.0, 0.2);
}

TEST(PoissonArrivals, StrictlyIncreasing) {
  PoissonArrivals stream([](double) { return 5.0; }, 5.0, util::Rng(9));
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double next = stream.next_after(t);
    EXPECT_GT(next, t);
    t = next;
  }
}

// ---------------------------------------------------------------- viewing

TEST(Viewing, TransferMatrixRowsSubStochastic) {
  ViewingBehavior b;
  const util::Matrix p = b.transfer_matrix(20);
  for (std::size_t i = 0; i < 20; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_GE(p(i, j), 0.0);
      row += p(i, j);
    }
    EXPECT_LE(row, 1.0 + 1e-12);
    // Interior rows leak exactly the leave probability.
    if (i + 1 < 20) {
      EXPECT_NEAR(row, 1.0 - b.leave_prob, 1e-12);
    }
  }
}

TEST(Viewing, LastChunkOnlyJumps) {
  ViewingBehavior b;
  const util::Matrix p = b.transfer_matrix(5);
  double row = 0.0;
  for (std::size_t j = 0; j < 5; ++j) row += p(4, j);
  EXPECT_NEAR(row, b.jump_prob, 1e-12);
}

TEST(Viewing, EntryDistributionAlphaAtFirstChunk) {
  ViewingBehavior b;
  b.alpha = 0.6;
  const std::vector<double> e = b.entry_distribution(20);
  EXPECT_DOUBLE_EQ(e[0], 0.6);
  for (std::size_t i = 1; i < 20; ++i) EXPECT_NEAR(e[i], 0.4 / 19.0, 1e-12);
}

TEST(Viewing, SingleChunkChannel) {
  ViewingBehavior b;
  const util::Matrix p = b.transfer_matrix(1);
  EXPECT_DOUBLE_EQ(p(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(b.entry_distribution(1)[0], 1.0);
}

// --------------------------------------------------------- viewing chain

/// The (J, jump) grid both chain tests run on, with the default leave.
template <typename Check>
void for_each_chain(const Check& check) {
  for (const int j : {1, 2, 3, 20}) {
    for (const double jump : {0.0, 0.05, 0.4}) {
      SCOPED_TRACE(testing::Message() << "J=" << j << " jump=" << jump);
      ViewingBehavior b;
      b.jump_prob = jump;
      check(b, j);
    }
  }
}

TEST(ViewingChain, RowsAndLeaveMatchTransferMatrixBitwise) {
  // The cohort engine reads P and each row's leave off the chain, the
  // planner off transfer_matrix: both must be the doubles of the dense
  // construction, spelled out here as the matrix was always built.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for_each_chain([&](const ViewingBehavior& b, int j_count) {
    const auto n = static_cast<std::size_t>(j_count);
    util::Matrix dense(n, n);
    if (j_count > 1) {
      const double jump_each = b.jump_prob / static_cast<double>(j_count - 1);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < n; ++k) {
          if (k != i) dense(i, k) = jump_each;
        }
        if (i + 1 < n) dense(i, i + 1) += 1.0 - b.jump_prob - b.leave_prob;
      }
    }
    const util::Matrix p = b.transfer_matrix(j_count);
    const ViewingChain chain = b.chain(j_count);
    for (int i = 0; i < j_count; ++i) {
      const auto row = static_cast<std::size_t>(i);
      double sum = 0.0;
      for (int k = 0; k < j_count; ++k) {
        const auto col = static_cast<std::size_t>(k);
        EXPECT_EQ(bits(p(row, col)), bits(dense(row, col)))
            << "row " << i << " column " << k;
        EXPECT_EQ(bits(chain.transfer(i, k)), bits(dense(row, col)))
            << "row " << i << " column " << k;
        sum += dense(row, col);
      }
      EXPECT_EQ(bits(chain.leave(i)), bits(std::max(0.0, 1.0 - sum)))
          << "row " << i;
    }
  });
}

TEST(ViewingChain, StepMatchesDenseReferenceStep) {
  // One O(J) step against next[k] = Σ_j occ[j]·P(j,k) through the dense
  // matrix, on random rows with empty positions. Swapping the seek and
  // play constants, or shifting the wrong way, fails every row.
  util::Rng rng(20260);
  for_each_chain([&](const ViewingBehavior& b, int j_count) {
    const auto n = static_cast<std::size_t>(j_count);
    const util::Matrix p = b.transfer_matrix(j_count);
    const ViewingChain chain = b.chain(j_count);
    std::vector<double> occ(n), next(n), ref(n);
    for (int trial = 0; trial < 50; ++trial) {
      double alive = 0.0;
      for (double& o : occ) {
        o = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.0, 1e6);
        alive += o;
      }
      std::fill(ref.begin(), ref.end(), 0.0);
      double ref_stay = 0.0;
      double departed = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t k = 0; k < n; ++k) ref[k] += occ[j] * p(j, k);
        departed += occ[j] * chain.leave(static_cast<int>(j));
      }
      for (const double r : ref) ref_stay += r;

      const double stay = chain.step(occ, next);
      const double tol = 1e-13 * alive;
      double next_sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(next[k], ref[k], tol) << "trial " << trial << " k=" << k;
        EXPECT_GE(next[k], 0.0);
        next_sum += next[k];
      }
      EXPECT_NEAR(stay, ref_stay, tol) << "trial " << trial;
      EXPECT_EQ(stay, next_sum) << "stay is Σ next in k order";
      // Mass is conserved: what stays plus what leaves is what was there.
      EXPECT_NEAR(stay + departed, alive, 1e-12 * alive) << "trial " << trial;
    }
  });
}

TEST(Viewing, SampleNextFrequenciesMatchMatrix) {
  ViewingBehavior b;
  util::Rng rng(10);
  const int trials = 100'000;
  int leaves = 0, sequential = 0, jumps = 0;
  for (int i = 0; i < trials; ++i) {
    const auto next = b.sample_next(3, 20, rng);
    if (!next) {
      ++leaves;
    } else if (*next == 4) {
      ++sequential;
    } else {
      ++jumps;
    }
  }
  EXPECT_NEAR(leaves / static_cast<double>(trials), b.leave_prob, 0.01);
  // Sequential includes the jump mass that happens to land on chunk 4.
  const double jump_each = b.jump_prob / 19.0;
  EXPECT_NEAR(sequential / static_cast<double>(trials),
              1.0 - b.leave_prob - b.jump_prob + jump_each, 0.01);
  EXPECT_NEAR(jumps / static_cast<double>(trials), b.jump_prob - jump_each, 0.01);
}

TEST(Viewing, SampleNextNeverReturnsCurrentOnJump) {
  ViewingBehavior b;
  b.jump_prob = 1.0;
  b.leave_prob = 0.0;
  // leave_prob must be > 0 for validate(); bypass by sampling raw matrix.
  b.leave_prob = 1e-6;
  util::Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const auto next = b.sample_next(7, 20, rng);
    if (next) {
      EXPECT_NE(*next, 7);
    }
  }
}

TEST(Viewing, ValidationRejectsBadParameters) {
  ViewingBehavior b;
  b.leave_prob = 0.0;
  EXPECT_THROW(b.validate(), util::PreconditionError);
  b = ViewingBehavior{};
  b.jump_prob = 0.95;
  b.leave_prob = 0.1;
  EXPECT_THROW(b.validate(), util::PreconditionError);
}

TEST(SessionGenerator, WalksAreLegalAndTerminate) {
  SessionGenerator gen(ViewingBehavior{}, 20);
  util::Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    const std::vector<int> walk = gen.sample_walk(rng);
    ASSERT_FALSE(walk.empty());
    for (std::size_t k = 0; k < walk.size(); ++k) {
      EXPECT_GE(walk[k], 0);
      EXPECT_LT(walk[k], 20);
    }
  }
}

TEST(SessionGenerator, MeanWalkLengthMatchesAbsorbingChain) {
  WorkloadConfig cfg;
  cfg.num_channels = 1;
  const Workload workload(cfg, 13);
  const double analytic = workload.expected_session_chunks();

  SessionGenerator gen(cfg.behavior, cfg.chunks_per_video);
  util::Rng rng(13);
  util::SummaryStats lengths;
  for (int i = 0; i < 50'000; ++i) {
    lengths.add(static_cast<double>(gen.sample_walk(rng).size()));
  }
  EXPECT_NEAR(lengths.mean() / analytic, 1.0, 0.03);
}

// ---------------------------------------------------------------- workload

TEST(Workload, ChannelRatesFollowZipfAndDiurnal) {
  WorkloadConfig cfg;
  cfg.total_arrival_rate = 1.0;
  const Workload w(cfg, 1);
  const double t = 12.5 * 3600.0;
  // Rate ratios across channels equal Zipf weight ratios at any time.
  EXPECT_NEAR(w.channel_rate(0, t) / w.channel_rate(1, t), 2.0, 1e-9);
  double total = 0.0;
  for (int c = 0; c < cfg.num_channels; ++c) total += w.channel_rate(c, t);
  EXPECT_NEAR(total, cfg.diurnal.multiplier(t), 1e-9);
}

TEST(Workload, CatalogRefreshRotatesPopularityConservingTotal) {
  WorkloadConfig cfg;
  cfg.total_arrival_rate = 1.0;
  cfg.refresh_period_hours = 2.0;
  cfg.refresh_shift = 7;
  const Workload w(cfg, 1);
  const Workload static_w([] {
    WorkloadConfig c;
    c.total_arrival_rate = 1.0;
    return c;
  }(), 1);

  const double before = 1.0 * 3600.0;   // epoch 0: static mapping
  const double after = 3.0 * 3600.0;    // epoch 1: rotated by 7
  // Epoch 0 matches the static workload exactly.
  for (int c = 0; c < cfg.num_channels; ++c) {
    EXPECT_DOUBLE_EQ(w.channel_rate(c, before),
                     static_w.channel_rate(c, before));
  }
  // After the refresh, channel c serves rank (c + 7) mod n: the old rank-0
  // leader drops to rank 7's weight while channel 13 inherits rank 0.
  EXPECT_DOUBLE_EQ(w.channel_weight_at(0, after), w.channel_weight_at(7, before));
  EXPECT_DOUBLE_EQ(w.channel_weight_at(13, after),
                   w.channel_weight_at(0, before));
  EXPECT_LT(w.channel_rate(0, after), static_w.channel_rate(0, after));
  // The weights are a permutation: total arrival rate is conserved.
  double total_before = 0.0, total_after = 0.0;
  for (int c = 0; c < cfg.num_channels; ++c) {
    total_before += w.channel_weight_at(c, before);
    total_after += w.channel_weight_at(c, after);
  }
  EXPECT_NEAR(total_before, 1.0, 1e-9);
  EXPECT_NEAR(total_after, 1.0, 1e-9);
}

TEST(Workload, CatalogRefreshEnvelopeBoundsEveryEpoch) {
  WorkloadConfig cfg;
  cfg.refresh_period_hours = 1.0;
  cfg.refresh_shift = 3;
  const Workload w(cfg, 5);
  // The thinning envelope must bound the rate whatever rank the rotation
  // hands a channel — sampled across a week of epochs.
  for (int c = 0; c < cfg.num_channels; c += 5) {
    const double bound = w.channel_max_rate(c);
    for (double t = 0.0; t < 7.0 * 24.0 * 3600.0; t += 1800.0) {
      ASSERT_LE(w.channel_rate(c, t), bound * (1.0 + 1e-12));
    }
  }
}

TEST(Workload, CatalogRefreshArrivalStreamsStayDeterministic) {
  WorkloadConfig cfg;
  cfg.refresh_period_hours = 0.5;
  cfg.refresh_shift = 7;
  const Workload a(cfg, 7), b(cfg, 7);
  PoissonArrivals s1 = a.make_arrivals(2);
  PoissonArrivals s2 = b.make_arrivals(2);
  double t1 = 0.0, t2 = 0.0;
  for (int i = 0; i < 200; ++i) {
    t1 = s1.next_after(t1);
    t2 = s2.next_after(t2);
    ASSERT_DOUBLE_EQ(t1, t2);
  }
}

TEST(Workload, RefreshValidation) {
  WorkloadConfig cfg;
  cfg.refresh_period_hours = -1.0;
  EXPECT_THROW(cfg.validate(), util::PreconditionError);
}

TEST(Workload, SessionsDeterministicPerUserIndex) {
  WorkloadConfig cfg;
  const Workload a(cfg, 99), b(cfg, 99);
  for (std::uint64_t u = 0; u < 50; ++u) {
    const SessionScript sa = a.make_session(3, u);
    const SessionScript sb = b.make_session(3, u);
    EXPECT_EQ(sa.chunks, sb.chunks);
    EXPECT_DOUBLE_EQ(sa.uplink, sb.uplink);
  }
}

TEST(Workload, SessionsVaryAcrossUsers) {
  WorkloadConfig cfg;
  const Workload w(cfg, 99);
  int identical = 0;
  const SessionScript first = w.make_session(0, 0);
  for (std::uint64_t u = 1; u < 50; ++u) {
    identical += w.make_session(0, u).chunks == first.chunks;
  }
  EXPECT_LT(identical, 10);
}

TEST(Workload, ArrivalStreamsDeterministic) {
  WorkloadConfig cfg;
  const Workload w(cfg, 7);
  PoissonArrivals s1 = w.make_arrivals(2);
  PoissonArrivals s2 = w.make_arrivals(2);
  double t1 = 0.0, t2 = 0.0;
  for (int i = 0; i < 100; ++i) {
    t1 = s1.next_after(t1);
    t2 = s2.next_after(t2);
    EXPECT_DOUBLE_EQ(t1, t2);
  }
}

TEST(Workload, UplinkRescaledToRatio) {
  WorkloadConfig cfg;
  cfg.uplink_mean_ratio = 1.2;
  cfg.streaming_rate = 50'000.0;
  const Workload w(cfg, 7);
  EXPECT_NEAR(w.uplink_distribution().mean(), 60'000.0, 1e-6);
}

TEST(Workload, UplinkRatioZeroKeepsLiteralPareto) {
  WorkloadConfig cfg;
  cfg.uplink_mean_ratio = 0.0;
  const Workload w(cfg, 7);
  EXPECT_NEAR(w.uplink_distribution().mean() / 50'000.0, 0.675, 0.01);
}

TEST(Workload, ValidatesConfig) {
  WorkloadConfig cfg;
  cfg.num_channels = 0;
  EXPECT_THROW(Workload(cfg, 1), util::PreconditionError);
}

TEST(Workload, MaxRateBoundsInstantaneousRate) {
  WorkloadConfig cfg;
  const Workload w(cfg, 3);
  for (int c = 0; c < cfg.num_channels; c += 5) {
    const double cap = w.channel_max_rate(c);
    for (int minute = 0; minute < 24 * 60; minute += 7) {
      EXPECT_LE(w.channel_rate(c, minute * 60.0), cap + 1e-12);
    }
  }
}

TEST(Workload, ExpectedSessionChunksIsPlausible) {
  WorkloadConfig cfg;  // default behaviour: leave 0.12, jump 0.28
  const Workload w(cfg, 3);
  const double chunks = w.expected_session_chunks();
  EXPECT_GT(chunks, 2.0);
  EXPECT_LT(chunks, 12.0);
}

}  // namespace

TEST(BoundedPareto, QuantileIsTheInverseCdf) {
  const workload::BoundedPareto d(22'500.0, 1'250'000.0, 3.0);
  // Boundaries and interior: quantile(0) = lower; quantile(u) increases;
  // quantile(1-eps) approaches (but never exceeds) upper.
  EXPECT_DOUBLE_EQ(d.quantile(0.0), d.lower());
  double prev = 0.0;
  for (double u = 0.0; u < 1.0; u += 0.01) {
    const double x = d.quantile(u);
    EXPECT_GE(x, prev);
    EXPECT_GE(x, d.lower() - 1e-9);
    EXPECT_LE(x, d.upper() + 1e-9);
    prev = x;
  }
  EXPECT_NEAR(d.quantile(1.0 - 1e-12), d.upper(), 1.0);
  EXPECT_THROW((void)d.quantile(1.0), util::PreconditionError);
  EXPECT_THROW((void)d.quantile(-0.1), util::PreconditionError);
}

TEST(BoundedPareto, QuantileMedianMatchesClosedForm) {
  // F(x) = (1 - (L/x)^k)/(1 - (L/H)^k) = 1/2 =>
  // x = L / (1 - (1 - (L/H)^k)/2)^(1/k).
  const double lower = 100.0, upper = 1e5, k = 3.0;
  const workload::BoundedPareto d(lower, upper, k);
  const double lk_hk = std::pow(lower / upper, k);
  const double expected = lower / std::pow(1.0 - 0.5 * (1.0 - lk_hk), 1.0 / k);
  EXPECT_NEAR(d.quantile(0.5), expected, 1e-9 * expected);
}

TEST(BoundedPareto, SampleDrawsThroughTheQuantile) {
  // sample() must be exactly quantile(U): same RNG stream, same values.
  const workload::BoundedPareto d(22'500.0, 1'250'000.0, 3.0);
  util::Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(d.sample(a), d.quantile(b.uniform()));
  }
}

}  // namespace cloudmedia::workload
