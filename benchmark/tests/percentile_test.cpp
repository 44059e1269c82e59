// Fixed-input checks of the percentile and windowed-p99 helpers.
#include <cmath>
#include <cstdio>
#include <vector>

#include "percentile.hpp"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::abs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using lacc_bench::median;
  using lacc_bench::percentile;
  using lacc_bench::windowed_p99;

  expect_near("empty", percentile({}, 0.5), 0);
  expect_near("single", percentile({7}, 0.99), 7);
  expect_near("median odd", median({3, 1, 2}), 2);
  expect_near("median even", median({4, 1, 3, 2}), 2.5);
  expect_near("p0", percentile({5, 1, 9}, 0), 1);
  expect_near("p100", percentile({5, 1, 9}, 1), 9);
  // 1..11: position 0.9 * 10 = 9 -> the 10th value.
  expect_near("p90 exact rank",
              percentile({11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.9), 10);
  // 1..10: position 0.9 * 9 = 8.1 -> 9 + 0.1 * (10 - 9).
  expect_near("p90 interpolated",
              percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.1);

  // Three full 1 s windows of 100 samples (values 1..100, so each p99 is
  // 99.01) except that window 1 holds one stall of 1000: its p99 becomes
  // 99 + 0.01 * 901 = 108.01, and the median of the three stays 99.01.
  std::vector<double> at, v;
  for (int w = 0; w < 3; ++w)
    for (int i = 1; i <= 100; ++i) {
      at.push_back(w + i / 200.0);
      v.push_back(w == 1 && i == 100 ? 1000 : i);
    }
  expect_near("windowed p99 ignores one window's stall",
              windowed_p99(at, v, 1.0), 99.01);
  // A partial trailing window (fewer than 100 samples) is skipped.
  at.push_back(3.5);
  v.push_back(1e6);
  expect_near("partial window skipped", windowed_p99(at, v, 1.0), 99.01);
  // No full window: plain p99 over everything.
  expect_near("no full window", windowed_p99({0, 0.5, 2}, {1, 2, 3}, 1.0),
              percentile({1, 2, 3}, 0.99));

  if (failures == 0) std::printf("percentile_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
