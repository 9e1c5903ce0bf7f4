#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Percentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5}, 90), 5);
  EXPECT_DOUBLE_EQ(percentile(one_to(11), 90), 10);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, LeavesTheCallersOrderAlone) {
  const std::vector<double> xs = {3, 1, 2};
  median(xs);
  EXPECT_EQ(xs, (std::vector<double>{3, 1, 2}));
}

TEST(TailPercentile, CountsSamplesBeyondTheRank) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);  // rank 89.1: samples 90..99
  EXPECT_EQ(samples_beyond(92, 90), 10u);   // rank 81.9
  EXPECT_EQ(samples_beyond(91, 90), 9u);    // rank 81.0
  EXPECT_EQ(samples_beyond(20, 50), 10u);
  EXPECT_EQ(samples_beyond(0, 90), 0u);
}

TEST(TailPercentile, RefusesATailWithFewerThanTenSamplesBeyondIt) {
  EXPECT_FALSE(tail_percentile(one_to(91), 90).has_value());
  ASSERT_TRUE(tail_percentile(one_to(92), 90).has_value());
  EXPECT_DOUBLE_EQ(*tail_percentile(one_to(92), 90), percentile(one_to(92), 90));
  EXPECT_FALSE(tail_percentile(one_to(19), 50).has_value());
  EXPECT_TRUE(tail_percentile(one_to(20), 50).has_value());
  EXPECT_FALSE(tail_percentile({}, 90).has_value());
}

TEST(Drift, ComparesTheLastTenthWithTheFirst) {
  std::vector<double> flat(50, 7.0);
  EXPECT_DOUBLE_EQ(*drift(flat), 1.0);
  std::vector<double> rising = one_to(100);  // tenths: 1..10 and 91..100
  EXPECT_DOUBLE_EQ(*drift(rising), 95.5 / 5.5);
  EXPECT_FALSE(drift(one_to(9)).has_value());
}

}  // namespace
}  // namespace perfbench
