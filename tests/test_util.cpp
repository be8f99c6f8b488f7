// Unit tests for edgedrift::util — RNG determinism and statistics, table
// formatting, thread pool behaviour, the 64-bit digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "edgedrift/util/digest.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/stopwatch.hpp"
#include "edgedrift/util/table.hpp"
#include "edgedrift/util/thread_pool.hpp"

namespace {

using edgedrift::util::digest64;
using edgedrift::util::Rng;
using edgedrift::util::Table;
using edgedrift::util::ThreadPool;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, GaussianMomentsMatchStandardNormal) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, GaussianScaleAndShift) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(19);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Table, RendersAlignedColumnsWithHeaderRule) {
  Table t({"Method", "Acc"});
  t.add_row({"Quant Tree", "96.8"});
  t.add_row({"x", "1"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Quant Tree"), std::string::npos);
  EXPECT_NE(s.find("Method"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  // All lines have equal width.
  std::size_t first_newline = s.find('\n');
  const std::string first_line = s.substr(0, first_newline);
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t next = s.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, first_line.size());
    pos = next + 1;
  }
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(edgedrift::util::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(edgedrift::util::fmt(2.0, 0), "2");
  EXPECT_EQ(edgedrift::util::fmt_kb(2048, 1), "2.0 kB");
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, ParallelForCoversWholeRange) {
  ThreadPool pool(3);
  std::vector<int> hits(10000, 0);
  pool.parallel_for(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i] += 1;
      },
      /*min_chunk=*/64);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int v) { return v == 1; }));
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  edgedrift::util::Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(w.elapsed_ms(), 9.0);
  w.restart();
  EXPECT_LT(w.elapsed_ms(), 9.0);
}

// XXH64 of a string's bytes under `seed`.
std::uint64_t digest_of(std::string_view s, std::uint64_t seed = 0) {
  return digest64(s.data(), s.size(), seed);
}

TEST(Digest, MatchesXxh64KnownAnswers) {
  EXPECT_EQ(digest_of(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(digest_of("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(digest_of("abc"), 0x44BC2CF5AD770999ULL);
  // 39 bytes: one 32-byte stripe, then a 4-byte and three 1-byte tail steps.
  EXPECT_EQ(digest_of("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
}

TEST(Digest, EverySingleBitFlipChangesTheDigest) {
  // 77 bytes: two full stripes plus every tail step (8, 4 and 1 bytes).
  std::string bytes(77, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 37 + 11);
  }
  const std::uint64_t clean = digest_of(bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_NE(digest_of(flipped), clean) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Digest, ChainsThroughTheSeed) {
  // Chaining is what the projection fingerprint relies on: the seed feeds
  // the result, so a chained digest depends on every link.
  const std::uint64_t first = digest_of("shape");
  EXPECT_NE(digest_of("alpha", first), digest_of("alpha"));
  EXPECT_NE(digest_of("alpha", first), digest_of("alpha", first + 1));
}

}  // namespace
