// Tests for the env / rng / timing utility layer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "mvcc/common/env.h"
#include "mvcc/common/rng.h"
#include "mvcc/common/timing.h"

namespace {

using namespace mvcc;

TEST(Env, LongDefaultsAndOverrides) {
  unsetenv("MVCC_TEST_LONG");
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 42);
  setenv("MVCC_TEST_LONG", "7", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 7);
  setenv("MVCC_TEST_LONG", "-3", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), -3);
  setenv("MVCC_TEST_LONG", "junk", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 42);
  setenv("MVCC_TEST_LONG", "", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 42);
  unsetenv("MVCC_TEST_LONG");
}

TEST(Env, DoubleDefaultsAndOverrides) {
  unsetenv("MVCC_TEST_DOUBLE");
  EXPECT_DOUBLE_EQ(env_double("MVCC_TEST_DOUBLE", 0.4), 0.4);
  setenv("MVCC_TEST_DOUBLE", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("MVCC_TEST_DOUBLE", 0.4), 2.5);
  setenv("MVCC_TEST_DOUBLE", "nope", 1);
  EXPECT_DOUBLE_EQ(env_double("MVCC_TEST_DOUBLE", 0.4), 0.4);
  unsetenv("MVCC_TEST_DOUBLE");
}

TEST(Env, ScaleMultipliesAndClampsToOne) {
  unsetenv("MVCC_SCALE");
  EXPECT_EQ(Config::from_env().scaled(1000), 1000);
  setenv("MVCC_SCALE", "2.5", 1);
  EXPECT_EQ(Config::from_env().scaled(1000), 2500);
  setenv("MVCC_SCALE", "0.0001", 1);
  // A positive base never scales to zero.
  EXPECT_EQ(Config::from_env().scaled(1000), 1);
  unsetenv("MVCC_SCALE");
}

TEST(Env, ScaleNoArgReturnsRawMultiplier) {
  unsetenv("MVCC_SCALE");
  EXPECT_DOUBLE_EQ(Config::from_env().scale, 1.0);
  setenv("MVCC_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(Config::from_env().scale, 2.5);
  setenv("MVCC_SCALE", "0.01", 1);
  // Fractional scales pass through.
  EXPECT_DOUBLE_EQ(Config::from_env().scale, 0.01);
  setenv("MVCC_SCALE", "junk", 1);
  EXPECT_DOUBLE_EQ(Config::from_env().scale, 1.0);
  unsetenv("MVCC_SCALE");
}

TEST(Env, ThreadsIsPositive) {
  unsetenv("MVCC_THREADS");
  EXPECT_GE(Config::from_env().threads, 1);
  setenv("MVCC_THREADS", "5", 1);
  EXPECT_EQ(Config::from_env().threads, 5);
  setenv("MVCC_THREADS", "-2", 1);
  EXPECT_GE(Config::from_env().threads, 1);
  unsetenv("MVCC_THREADS");
}

TEST(Env, ConfigFromEnvSeedsEveryKnob) {
  setenv("MVCC_SCALE", "2.0", 1);
  setenv("MVCC_THREADS", "3", 1);
  Config c = Config::from_env();
  EXPECT_DOUBLE_EQ(c.scale, 2.0);
  EXPECT_EQ(c.threads, 3);
  EXPECT_EQ(c.scaled(1000), 2000);
  EXPECT_EQ(c.scaled(0), 0);  // zero base is exempt from the >=1 clamp
  unsetenv("MVCC_SCALE");
  unsetenv("MVCC_THREADS");
}

TEST(Env, ReloadConfigReseedsTheProcessSingleton) {
  const Config saved = config();
  setenv("MVCC_SCALE", "4.0", 1);
  reload_config();
  EXPECT_DOUBLE_EQ(config().scale, 4.0);
  unsetenv("MVCC_SCALE");
  reload_config();
  EXPECT_DOUBLE_EQ(config().scale, saved.scale);
}

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, ZeroSeedIsUsable) {
  Xoshiro256 rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(rng());
  EXPECT_GT(seen.size(), 60u);  // not stuck in a degenerate cycle
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(99);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Timing, TimerAdvancesAndResets) {
  Timer t;
  const double a = t.seconds();
  EXPECT_GE(a, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double b = t.seconds();
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LE(t.seconds(), b);
}

}  // namespace
