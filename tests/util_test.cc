#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/check.h"
#include "util/csv.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace cloudmedia::util {
namespace {

// ---------------------------------------------------------------- check.h

TEST(Check, ExpectsThrowsPreconditionError) {
  EXPECT_THROW(CM_EXPECTS(1 == 2), PreconditionError);
  EXPECT_NO_THROW(CM_EXPECTS(1 == 1));
}

TEST(Check, EnsuresThrowsInvariantError) {
  EXPECT_THROW(CM_ENSURES(false), InvariantError);
  EXPECT_NO_THROW(CM_ENSURES(true));
}

TEST(Check, MessagesIncludeExpressionAndLocation) {
  try {
    CM_EXPECTS(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("util_test.cc"), std::string::npos);
  }
}

// ---------------------------------------------------------------- units.h

TEST(Units, BandwidthConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(mbps(10.0), 1'250'000.0);
  EXPECT_DOUBLE_EQ(kbps(400.0), 50'000.0);
  EXPECT_DOUBLE_EQ(to_mbps(mbps(123.0)), 123.0);
  EXPECT_DOUBLE_EQ(to_kbps(kbps(180.0)), 180.0);
}

TEST(Units, DataSizes) {
  EXPECT_DOUBLE_EQ(megabytes(15.0), 15e6);
  EXPECT_DOUBLE_EQ(to_gigabytes(gigabytes(20.0)), 20.0);
  EXPECT_DOUBLE_EQ(to_megabytes(megabytes(1.5)), 1.5);
}

TEST(Units, Time) {
  EXPECT_DOUBLE_EQ(minutes(5.0), 300.0);
  EXPECT_DOUBLE_EQ(hours(1.0), 3600.0);
  EXPECT_DOUBLE_EQ(days(1.0), 86400.0);
  EXPECT_DOUBLE_EQ(to_hours(hours(7.5)), 7.5);
  EXPECT_DOUBLE_EQ(to_days(days(2.0)), 2.0);
}

TEST(Units, PaperChunkGeometry) {
  // r = 400 kbps, T0 = 5 min -> 15 MB chunks (Sec. VI-A).
  EXPECT_DOUBLE_EQ(kbps(400.0) * minutes(5.0), megabytes(15.0));
}

// ------------------------------------------------------------------ rng.h

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.uniform() == b.uniform();
  EXPECT_LT(equal, 5);
}

TEST(Rng, DeriveIsIndependentOfDrawOrder) {
  Rng root(42);
  Rng d1 = root.derive(7, 3);
  // Drawing from the root must not change derived streams.
  (void)root.uniform();
  Rng d2 = root.derive(7, 3);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(d1.uniform(), d2.uniform());
}

TEST(Rng, DeriveDistinguishesPurposeAndId) {
  Rng root(42);
  EXPECT_NE(root.derive(1, 0).uniform(), root.derive(2, 0).uniform());
  EXPECT_NE(root.derive(1, 0).uniform(), root.derive(1, 1).uniform());
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    saw_lo |= v == 1;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(11);
  SummaryStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 50'000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 50'000.0, 0.3, 0.02);
}

TEST(Rng, WeightedIndexMatchesWeights) {
  Rng rng(17);
  std::vector<double> weights{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30'000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(counts[0] / 30'000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30'000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[2] / 30'000.0, 0.6, 0.02);
}

TEST(Rng, WeightedIndexRejectsAllZero) {
  Rng rng(1);
  std::vector<double> weights{0.0, 0.0};
  EXPECT_THROW((void)rng.weighted_index(weights), PreconditionError);
}

TEST(Rng, RejectsInvalidParameters) {
  Rng rng(1);
  EXPECT_THROW((void)rng.exponential(0.0), PreconditionError);
  EXPECT_THROW((void)rng.bernoulli(1.5), PreconditionError);
  EXPECT_THROW((void)rng.uniform(3.0, 2.0), PreconditionError);
}

TEST(Rng, Mix64ChangesValue) {
  EXPECT_NE(mix64(0), 0u);
  EXPECT_NE(mix64(1), mix64(2));
}

// --------------------------------------------------------------- matrix.h

TEST(Matrix, IdentitySolve) {
  const Matrix eye = Matrix::identity(3);
  const std::vector<double> b{1.0, 2.0, 3.0};
  const std::vector<double> x = LuFactors(eye).solve(b);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(x[i], b[i]);
}

TEST(Matrix, SolveKnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const std::vector<double> x = LuFactors(a).solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, SolveRequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const std::vector<double> x = LuFactors(a).solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Matrix, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW((void)LuFactors(a), InvariantError);  // at factoring time
}

/// The interleaved elimination of [A | b] that LuFactors splits in two,
/// kept verbatim as the bitwise reference.
std::vector<double> interleaved_solve(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(pivot, c), a(col, c));
      std::swap(b[pivot], b[col]);
    }
    const double inv = 1.0 / a(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) * inv;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a(r, c) -= factor * a(col, c);
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a(ri, c) * x[c];
    x[ri] = acc / a(ri, ri);
  }
  return x;
}

void expect_lu_matches_interleaved(const Matrix& a) {
  const LuFactors lu(a);
  const std::size_t n = a.rows();
  std::vector<std::vector<double>> rhs(3, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    rhs[0][i] = 1.0;
    rhs[1][i] = 0.1 * static_cast<double>(i + 1) - 0.37;
    rhs[2][i] = std::sin(1.7 * static_cast<double>(i)) * 1e3;
  }
  for (const std::vector<double>& b : rhs) {
    const std::vector<double> expected = interleaved_solve(a, b);
    const std::vector<double> x = lu.solve(b);
    ASSERT_EQ(x.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], expected[i]) << i;
  }
}

Matrix from_rows(const std::vector<std::vector<double>>& rows) {
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rows[r][c];
  return m;
}

/// Row 2 has the largest entry of column 1, so step 1 swaps rows 1 and 2
/// after step 0 stored their multipliers: the stored multipliers must
/// travel with their rows.
Matrix swaps_late_matrix() {
  return from_rows({{4.0, 1.0, 0.3, -2.0},
                    {1.0, 0.1, 2.0, 0.7},
                    {-2.0, 5.0, 1.0, 0.2},
                    {0.5, -1.0, 0.4, 3.0}});
}

/// Rows 1 and 3 start with an exact zero in column 0 (zero multipliers the
/// elimination skips); column 0's pivot is row 2.
Matrix zero_multipliers_matrix() {
  return from_rows({{1.0, 2.0, 0.0, 1.0},
                    {0.0, 3.0, 1.0, -1.0},
                    {-6.0, 0.5, 2.0, 0.0},
                    {0.0, 1.0, -4.0, 2.5}});
}

/// The traffic-equation shape at paper size: I − Pᵀ of a dense 20×20
/// sub-stochastic P.
Matrix traffic_matrix() {
  Matrix traffic = Matrix::identity(20);
  for (std::size_t r = 0; r < 20; ++r)
    for (std::size_t c = 0; c < 20; ++c)
      traffic(c, r) -= 0.04 + 0.003 * static_cast<double>((r * 7 + c * 3) % 5);
  return traffic;
}

TEST(LuFactors, BitwiseEqualsInterleavedElimination) {
  expect_lu_matches_interleaved(swaps_late_matrix());
  expect_lu_matches_interleaved(zero_multipliers_matrix());
  expect_lu_matches_interleaved(traffic_matrix());
}

TEST(LuFactors, SolveColumnsEqualsSingleSolvesBitwise) {
  Matrix one(1, 1);
  one(0, 0) = -0.3;
  for (const Matrix& a : {swaps_late_matrix(), zero_multipliers_matrix(),
                          traffic_matrix(), one}) {
    const LuFactors lu(a);
    const std::size_t n = a.rows();
    for (const std::size_t k : {1, 2, 3, 4, 5, 20}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " k=" << k);
      // Column c mixes signs and magnitudes; column 1 is all zero.
      std::vector<double> b(n * k);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < k; ++c) {
          b[r * k + c] =
              c == 1 ? 0.0
                     : std::sin(1.7 * static_cast<double>(r) +
                                        0.9 * static_cast<double>(c)) *
                               std::pow(10.0, static_cast<double>(c % 4)) -
                           0.37 * static_cast<double>(c);
        }
      }
      std::vector<double> batch = b;
      lu.solve_columns(batch, k);
      for (std::size_t c = 0; c < k; ++c) {
        std::vector<double> column(n);
        for (std::size_t r = 0; r < n; ++r) column[r] = b[r * k + c];
        const std::vector<double> x = lu.solve(column);
        for (std::size_t r = 0; r < n; ++r) {
          EXPECT_EQ(std::memcmp(&batch[r * k + c], &x[r], sizeof(double)), 0)
              << "column " << c << " row " << r << ": " << batch[r * k + c]
              << " vs " << x[r];
        }
      }
    }
    std::vector<double> short_by_one(n * 3 - 1);
    EXPECT_THROW(lu.solve_columns(short_by_one, 3), PreconditionError);
  }
}

TEST(Matrix, TransposeAndMultiply) {
  Matrix a(2, 3);
  int v = 1;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = v++;
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), a(1, 2));

  const std::vector<double> ones{1.0, 1.0, 1.0};
  const std::vector<double> y = a.multiply(ones);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, MatrixMultiplyAgainstHand) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  const Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a(2, 2, 1.0), b(2, 2, 2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0);
  a *= 5.0;
  EXPECT_DOUBLE_EQ(a(0, 1), 5.0);
}

TEST(Matrix, InfNorm) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = -2;
  a(1, 0) = 0.5;
  a(1, 1) = 0.25;
  EXPECT_DOUBLE_EQ(a.inf_norm(), 3.0);
}

TEST(Matrix, BoundsChecked) {
  Matrix a(2, 2);
  EXPECT_THROW((void)a.at(2, 0), PreconditionError);
  EXPECT_THROW((void)a.at(0, 2), PreconditionError);
}

TEST(Matrix, DimensionMismatchThrows) {
  Matrix a(2, 2);
  EXPECT_THROW((void)a.multiply(std::vector<double>{1.0}), PreconditionError);
  EXPECT_THROW((void)LuFactors(Matrix(2, 3)), PreconditionError);
  EXPECT_THROW((void)LuFactors(Matrix::identity(2)).solve({1.0}),
               PreconditionError);
}

// ---------------------------------------------------------------- stats.h

TEST(SummaryStats, MeanVarianceMinMax) {
  SummaryStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryStats, MergeMatchesCombined) {
  SummaryStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 1.7) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(SummaryStats, EmptyIsSafe) {
  const SummaryStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(TimeSeries, MeanOverWindow) {
  TimeSeries ts;
  ts.add(0.0, 10.0);
  ts.add(10.0, 20.0);
  ts.add(20.0, 30.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(0.0, 15.0), 15.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(5.0, 25.0), 25.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(100.0, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.mean(), 20.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 30.0);
}

TEST(TimeSeries, MaxAndPercentileOverWindow) {
  TimeSeries ts;
  ts.add(0.0, 10.0);
  ts.add(10.0, 40.0);
  ts.add(20.0, 30.0);
  ts.add(30.0, 20.0);
  EXPECT_DOUBLE_EQ(ts.max_over(0.0, 15.0), 40.0);
  EXPECT_DOUBLE_EQ(ts.max_over(15.0, 35.0), 30.0);
  EXPECT_DOUBLE_EQ(ts.max_over(100.0, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.percentile_over(0.0, 40.0, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(ts.percentile_over(0.0, 40.0, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(ts.percentile_over(0.0, 40.0, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(ts.percentile_over(100.0, 200.0, 50.0), 0.0);
}

TEST(Percentile, LinearInterpolation) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 95.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);  // sorts
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 25.0), 1.75);
  EXPECT_THROW((void)percentile({1.0}, 101.0), PreconditionError);
}

TEST(TimeSeries, RejectsBackwardTime) {
  TimeSeries ts;
  ts.add(5.0, 1.0);
  EXPECT_THROW(ts.add(4.0, 1.0), PreconditionError);
}

TEST(TimeSeries, ResampleBuckets) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.add(i * 1.0, i * 1.0);
  const TimeSeries hourly = ts.resample(0.0, 5.0);
  ASSERT_EQ(hourly.size(), 2u);
  EXPECT_DOUBLE_EQ(hourly.value_at(0), 2.0);  // mean of 0..4
  EXPECT_DOUBLE_EQ(hourly.value_at(1), 7.0);  // mean of 5..9
}

TEST(TimeSeries, ResampleSkipsLeadingSamples) {
  TimeSeries ts;
  ts.add(0.0, 100.0);
  ts.add(10.0, 1.0);
  const TimeSeries out = ts.resample(10.0, 5.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out.value_at(0), 1.0);
}

TEST(LinearFit, RecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFit, FlatDataHasZeroSlope) {
  const LinearFit fit = linear_fit({1, 2, 3, 4}, {5, 5, 5, 5});
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 5.0, 1e-12);
}

// ------------------------------------------------------------------ csv.h

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRowsToDisk) {
  const std::string path = "test_csv_out.csv";
  {
    CsvWriter csv(path);
    csv.write_header({"t", "v"});
    csv.write_row(std::vector<double>{1.0, 2.5});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "t,v");
  EXPECT_EQ(line2, "1,2.5");
  std::filesystem::remove(path);
}

TEST(Csv, EnsureDirectoryCreatesAndTolerandsExisting) {
  const std::string dir = "test_dir_a/test_dir_b";
  EXPECT_TRUE(ensure_directory(dir));
  EXPECT_TRUE(ensure_directory(dir));
  std::filesystem::remove_all("test_dir_a");
}

}  // namespace
}  // namespace cloudmedia::util
