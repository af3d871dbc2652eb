// Tests for buffer/crc/rng/threadpool/stats substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "sciprep/common/buffer.hpp"
#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/common/stats.hpp"
#include "sciprep/common/threadpool.hpp"

namespace sciprep {
namespace {

TEST(ErrorClassify, MapsExceptionTypesToRecoveryClasses) {
  EXPECT_EQ(classify(TransientError("pfs stall")), ErrorClass::kTransient);
  EXPECT_EQ(classify(FormatError("bad crc")), ErrorClass::kCorrupt);
  EXPECT_EQ(classify(TruncatedError("cut", 128)), ErrorClass::kCorrupt);
  EXPECT_EQ(classify(ConfigError("bad batch size")), ErrorClass::kConfig);
  EXPECT_EQ(classify(Error("generic")), ErrorClass::kFatal);
  EXPECT_EQ(classify(std::runtime_error("foreign")), ErrorClass::kFatal);
  EXPECT_EQ(classify(IoError("open failed")), ErrorClass::kFatal);
}

TEST(ErrorClassify, TruncatedErrorCarriesOffsetAndIsIoError) {
  const TruncatedError e("record cut short", 4096);
  EXPECT_EQ(e.offset(), 4096u);
  EXPECT_NE(dynamic_cast<const IoError*>(&e), nullptr);
  EXPECT_STREQ(error_class_name(classify(e)), "corrupt");
  EXPECT_STREQ(error_class_name(ErrorClass::kTransient), "transient");
}

TEST(ByteWriter, ScalarsAndStringsRoundTrip) {
  ByteWriter w;
  w.put<std::uint32_t>(0xDEADBEEFu);
  w.put<std::uint16_t>(42);
  w.put<float>(3.5F);
  w.put_string("cosmo");
  w.put<std::int64_t>(-7);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.get<std::uint16_t>(), 42);
  EXPECT_EQ(r.get<float>(), 3.5F);
  EXPECT_EQ(r.get_string(), "cosmo");
  EXPECT_EQ(r.get<std::int64_t>(), -7);
  EXPECT_TRUE(r.done());
}

TEST(ByteReader, ThrowsOnTruncation) {
  ByteWriter w;
  w.put<std::uint16_t>(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint8_t>(), 7);
  EXPECT_THROW(r.get<std::uint32_t>(), FormatError);
}

TEST(ByteWriter, PatchRewritesReservedBytes) {
  ByteWriter w;
  const std::size_t at = w.reserve(4);
  w.put<std::uint8_t>(9);
  w.patch<std::uint32_t>(at, 123456u);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint32_t>(), 123456u);
  EXPECT_EQ(r.get<std::uint8_t>(), 9);
}

TEST(Format, ZeroFlagFillsWithZeros) {
  EXPECT_EQ(fmt("{:08x}", 0x744a61fu), "0744a61f");
  EXPECT_EQ(fmt("{:08x}", 0u), "00000000");
  EXPECT_EQ(fmt("{:08x}", 0xc53caf1fu), "c53caf1f");
  EXPECT_EQ(fmt("{:05}", -42), "-0042");
}

TEST(Format, WidthAlonePadsWithSpaces) {
  EXPECT_EQ(fmt("{:8x}", 0x744a61fu), " 744a61f");
  EXPECT_EQ(fmt("{:<6}|", 42), "42    |");
  EXPECT_EQ(fmt("{:4}", 12345), "12345");
}

TEST(Crc32, KnownVectors) {
  // "123456789" — canonical check values.
  const auto data = as_bytes(std::string_view("123456789"));
  EXPECT_EQ(crc32c(data), 0xE3069283u);
  EXPECT_EQ(crc32c_sliced(data), 0xE3069283u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32c(ByteSpan{}), 0u);
  EXPECT_EQ(crc32c_sliced(ByteSpan{}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Rng rng(5);
  Bytes data(1000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const ByteSpan s(data);
  const std::uint32_t whole = crc32c(s);
  EXPECT_EQ(crc32c(s.subspan(300), crc32c(s.first(300))), whole);
  EXPECT_EQ(crc32c(s.subspan(123), crc32c(s.first(123))), whole);
}

TEST(Crc32, Crc32cEqualsSlicedAtEveryLengthAndAlignment) {
  // crc32c's hardware path runs three interleaved streams from 3 x 2 KiB
  // on and one stream below; both must equal the slice-by-8 tables. The
  // largest length is a DeepCAM 1152x192x16 FP16 tensor, a wire frame.
  Rng rng(19);
  Bytes data(7'077'888 + 8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::size_t lengths[] = {0,    1,    7,     8,     6143,
                                 6144, 6145, 18437, 65536, 7'077'888};
  for (const std::size_t n : lengths) {
    for (std::size_t align = 0; align < 8; ++align) {
      const ByteSpan s = ByteSpan(data).subspan(align, n);
      const std::uint32_t seed = static_cast<std::uint32_t>(rng.next_u64());
      EXPECT_EQ(crc32c(s), crc32c_sliced(s)) << n << " bytes at +" << align;
      EXPECT_EQ(crc32c(s, seed), crc32c_sliced(s, seed))
          << n << " bytes at +" << align << ", seeded";
    }
  }
  // Chained: each piece seeded with the CRC so far, pieces of random size.
  const ByteSpan all = ByteSpan(data).first(200'000);
  std::uint32_t chained = 0;
  for (std::size_t at = 0; at < all.size();) {
    const std::size_t n =
        std::min<std::size_t>(all.size() - at, rng.next_below(20'000));
    chained = crc32c(all.subspan(at, n), chained);
    at += n;
  }
  EXPECT_EQ(chained, crc32c_sliced(all));
}

TEST(Crc32, MaskUnmaskInverse) {
  for (std::uint32_t v : {0u, 1u, 0xFFFFFFFFu, 0xCBF43926u, 0x12345678u}) {
    EXPECT_EQ(unmask_crc(mask_crc(v)), v);
    EXPECT_NE(mask_crc(v), v);  // masking must change the value
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, ForkGivesIndependentStreams) {
  Rng root(1);
  Rng s0 = root.fork(0);
  Rng s1 = root.fork(1);
  EXPECT_NE(s0.next_u64(), s1.next_u64());
  // Forking is a pure function of (state, stream id).
  Rng root2(1);
  Rng s0b = root2.fork(0);
  s0 = root.fork(0);
  EXPECT_EQ(s0.next_u64(), s0b.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    const auto k = rng.next_below(17);
    ASSERT_LT(k, 17u);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.add(rng.normal());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(13);
  for (const double mean : {0.5, 4.0, 30.0, 200.0}) {
    RunningStats stats;
    for (int i = 0; i < 20000; ++i) {
      stats.add(static_cast<double>(rng.poisson(mean)));
    }
    EXPECT_NEAR(stats.mean(), mean, mean * 0.05 + 0.05) << "mean " << mean;
  }
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); }, 16);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57) throw Error("boom");
                                 }),
               Error);
  // Pool remains usable afterwards.
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats stats;
  const std::vector<double> xs = {1, 2, 3, 4, 100};
  for (double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_DOUBLE_EQ(stats.mean(), 22.0);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 100.0);
  // Sample variance of {1,2,3,4,100}.
  const double mean = 22.0;
  double m2 = 0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  EXPECT_NEAR(stats.variance(), m2 / 4.0, 1e-9);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(21);
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal() * 3 + 1;
    ((i % 2 == 0) ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(FrequencyTable, OrdersByFrequency) {
  FrequencyTable t;
  for (int i = 0; i < 10; ++i) t.add(5);
  for (int i = 0; i < 3; ++i) t.add(7);
  t.add(9);
  EXPECT_EQ(t.unique_count(), 3u);
  EXPECT_EQ(t.total(), 14u);
  const auto ranked = t.by_frequency();
  EXPECT_EQ(ranked[0].first, 5);
  EXPECT_EQ(ranked[1].first, 7);
  EXPECT_EQ(ranked[2].first, 9);
}

TEST(FrequencyTable, PowerLawSlopeRecoversExponent) {
  // Construct frequencies ~ rank^-2 exactly and check the fit.
  FrequencyTable t;
  for (std::int64_t rank = 1; rank <= 50; ++rank) {
    const auto freq =
        static_cast<std::uint64_t>(1e9 / static_cast<double>(rank * rank));
    t.add(rank, freq);
  }
  EXPECT_NEAR(t.power_law_slope(50), -2.0, 0.01);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.125), 1.5);
}

TEST(Percentile, SortsUnsortedInput) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(Percentile, EmptyInputIsNaN) {
  const std::vector<double> empty;
  EXPECT_TRUE(std::isnan(percentile(empty, 0.5)));
  EXPECT_TRUE(std::isnan(percentile_sorted(empty, 0.5)));
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats empty;
  RunningStats filled;
  filled.add(2.0);
  filled.add(4.0);

  RunningStats a = filled;
  a.merge(empty);  // merging in empty is a no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);

  RunningStats b;
  b.merge(filled);  // merging into empty copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
  EXPECT_DOUBLE_EQ(b.variance(), filled.variance());

  RunningStats c;
  c.merge(empty);  // empty into empty stays empty
  EXPECT_EQ(c.count(), 0u);
}

TEST(RunningStats, MergeSingleElementSides) {
  RunningStats a;
  a.add(10.0);
  RunningStats b;
  b.add(-10.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), -10.0);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
}

TEST(FrequencyTable, PowerLawSlopeDegenerateInputs) {
  FrequencyTable empty;
  EXPECT_DOUBLE_EQ(empty.power_law_slope(), 0.0);

  FrequencyTable single;
  single.add(7, 100);
  EXPECT_DOUBLE_EQ(single.power_law_slope(), 0.0);  // one point, no slope
}

TEST(FrequencyTable, PowerLawSlopeFewerEntriesThanRanks) {
  // rank^-1 over 5 entries, fit asked for 64 ranks: must clamp to what is
  // there instead of reading out of range.
  FrequencyTable t;
  for (std::int64_t rank = 1; rank <= 5; ++rank) {
    t.add(rank, static_cast<std::uint64_t>(120 / rank));
  }
  EXPECT_NEAR(t.power_law_slope(64), -1.0, 0.05);
}

TEST(LogHistogram, BucketBoundariesArePowersOfTwoSubdivided) {
  LogHistogram h({.min_value = 1.0, .max_value = 16.0, .buckets_per_octave = 1});
  // 4 octaves at 1 bucket each + underflow bucket 0.
  EXPECT_EQ(h.bucket_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bucket_lower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(4), 8.0);
  EXPECT_TRUE(std::isinf(h.bucket_upper(4)));  // last bucket absorbs overflow

  EXPECT_EQ(h.bucket_index(0.5), 0u);   // underflow
  EXPECT_EQ(h.bucket_index(1.0), 0u);   // boundary: <= min_value underflows
  EXPECT_EQ(h.bucket_index(1.5), 1u);
  EXPECT_EQ(h.bucket_index(3.0), 2u);
  EXPECT_EQ(h.bucket_index(12.0), 4u);
  EXPECT_EQ(h.bucket_index(1e9), 4u);   // overflow clamps to the last bucket
}

TEST(LogHistogram, TracksExactCountSumMinMax) {
  LogHistogram h;
  EXPECT_TRUE(std::isnan(h.mean()));
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));

  h.record(1e-3);
  h.record(4e-3);
  h.record(16e-3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum(), 21e-3, 1e-12);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 16e-3);
  // Quantiles are clamped to the observed extremes.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 16e-3);
  // The middle quantile lands inside 4e-3's bucket (within its bounds).
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, h.bucket_lower(h.bucket_index(4e-3)));
  EXPECT_LE(p50, h.bucket_upper(h.bucket_index(4e-3)));
}

TEST(LogHistogram, MergeAccumulates) {
  const LogHistogram::Options opts{.min_value = 1e-6,
                                   .max_value = 1.0,
                                   .buckets_per_octave = 2};
  LogHistogram a(opts);
  LogHistogram b(opts);
  a.record(1e-3, 5);
  b.record(1e-2, 3);
  a.merge(b);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_NEAR(a.sum(), 5e-3 + 3e-2, 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), 1e-3);
  EXPECT_DOUBLE_EQ(a.max(), 1e-2);
}

TEST(FormatBytes, HumanReadable) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3ull * 1024 * 1024 * 1024), "3.00 GiB");
}

}  // namespace
}  // namespace sciprep
