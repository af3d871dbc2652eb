// Tests for TFRecord framing, tf.Example protobuf codec, h5lite container,
// and sample (de)serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sciprep/common/error.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/io/h5lite.hpp"
#include "sciprep/io/samples.hpp"
#include "sciprep/io/tfexample.hpp"
#include "sciprep/io/tfrecord.hpp"

namespace sciprep::io {
namespace {

TEST(Varint, RoundTripsBoundaries) {
  const std::vector<std::uint64_t> values = {
      0, 1, 127, 128, 300, 16383, 16384, 0xFFFFFFFFull, ~0ull};
  ByteWriter w;
  for (const auto v : values) put_varint(w, v);
  ByteReader r(w.bytes());
  for (const auto v : values) {
    EXPECT_EQ(get_varint(r), v);
  }
  EXPECT_TRUE(r.done());
}

TEST(Varint, RejectsOverlong) {
  const Bytes bad(11, 0x80);  // 11 continuation bytes
  ByteReader r(bad);
  EXPECT_THROW(get_varint(r), FormatError);
}

TEST(TfRecord, RoundTripsRecords) {
  TfRecordWriter w;
  std::vector<Bytes> payloads;
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    Bytes p(rng.next_below(1000));
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u64());
    w.append(p);
    payloads.push_back(std::move(p));
  }
  EXPECT_EQ(w.record_count(), 20u);

  const auto records = TfRecordReader::read_all(w.stream());
  ASSERT_EQ(records.size(), payloads.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], payloads[i]) << "record " << i;
  }
}

TEST(TfRecord, EmptyStreamHasNoRecords) {
  EXPECT_TRUE(TfRecordReader::read_all({}).empty());
}

TEST(TfRecord, DetectsLengthCorruption) {
  TfRecordWriter w;
  w.append(as_bytes(std::string_view("hello world")));
  Bytes stream = std::move(w).take();
  stream[0] ^= 0x01;  // corrupt the length field
  TfRecordReader r(stream);
  Bytes payload;
  EXPECT_THROW(r.next(payload), FormatError);
}

TEST(TfRecord, DetectsPayloadCorruption) {
  TfRecordWriter w;
  w.append(as_bytes(std::string_view("hello world")));
  Bytes stream = std::move(w).take();
  stream[14] ^= 0x01;  // inside the payload
  TfRecordReader r(stream);
  Bytes payload;
  EXPECT_THROW(r.next(payload), FormatError);
}

TEST(TfRecord, DetectsTruncation) {
  TfRecordWriter w;
  w.append(Bytes(100, 7));
  const Bytes stream = std::move(w).take();
  const ByteSpan cut = ByteSpan(stream).first(stream.size() - 10);
  TfRecordReader r(cut);
  Bytes payload;
  // Declared length runs past EOF: a typed IoError naming the record offset.
  try {
    r.next(payload);
    FAIL() << "expected TruncatedError";
  } catch (const TruncatedError& e) {
    EXPECT_EQ(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("offset 0"), std::string::npos);
  }
}

TEST(TfRecord, TruncatedHeaderNamesOffset) {
  TfRecordWriter w;
  w.append(Bytes(16, 3));
  const Bytes stream = std::move(w).take();
  // Cut inside the *second* record's 12-byte header.
  Bytes two = stream;
  two.insert(two.end(), stream.begin(), stream.begin() + 6);
  TfRecordReader r{ByteSpan(two)};
  Bytes payload;
  ASSERT_TRUE(r.next(payload));
  try {
    r.next(payload);
    FAIL() << "expected TruncatedError";
  } catch (const TruncatedError& e) {
    EXPECT_EQ(e.offset(), stream.size());
  }
}

TEST(TfRecord, PayloadCrcFailureResyncsToNextRecord) {
  TfRecordWriter w;
  w.append(Bytes(64, 1));
  w.append(Bytes(64, 2));
  w.append(Bytes(64, 3));
  Bytes stream = std::move(w).take();
  // Flip one payload byte of the middle record (header is 12 bytes, the
  // first record spans 12 + 64 + 4 bytes).
  stream[(12 + 64 + 4) + 12 + 10] ^= 0x01;
  TfRecordReader r{ByteSpan(stream)};
  Bytes payload;
  ASSERT_TRUE(r.next(payload));
  EXPECT_EQ(payload, Bytes(64, 1));
  // The bad record throws, but the reader position has advanced past it...
  EXPECT_THROW(r.next(payload), FormatError);
  // ...so the next call resyncs to the following record.
  ASSERT_TRUE(r.next(payload));
  EXPECT_EQ(payload, Bytes(64, 3));
  EXPECT_FALSE(r.next(payload));
}

TEST(TfRecord, GzipVariantRoundTrips) {
  TfRecordWriter w;
  for (int i = 0; i < 5; ++i) {
    w.append(Bytes(5000, static_cast<std::uint8_t>(i)));
  }
  const Bytes plain = std::move(w).take();
  const Bytes zipped = gzip_tfrecord_stream(plain);
  EXPECT_LT(zipped.size(), plain.size());
  EXPECT_EQ(gunzip_tfrecord_stream(zipped), plain);
  const auto records = TfRecordReader::read_all(gunzip_tfrecord_stream(zipped));
  EXPECT_EQ(records.size(), 5u);
}

TEST(TfExample, SerializeParseRoundTrip) {
  TfExample ex;
  ex.features.emplace("x", Feature::of_bytes({1, 2, 3, 4, 255}));
  ex.features.emplace("y", Feature::of_floats({1.5F, -2.25F, 0.0F, 1e20F}));
  ex.features.emplace("size", Feature::of_int64s({128, -5}));

  const Bytes wire = ex.serialize();
  const TfExample back = TfExample::parse(wire);
  EXPECT_EQ(back.bytes_feature("x"), Bytes({1, 2, 3, 4, 255}));
  EXPECT_EQ(back.float_feature("y"),
            (std::vector<float>{1.5F, -2.25F, 0.0F, 1e20F}));
  EXPECT_EQ(back.int64_feature("size"), (std::vector<std::int64_t>{128, -5}));
}

TEST(TfExample, MissingFeatureThrows) {
  TfExample ex;
  ex.features.emplace("y", Feature::of_floats({1.0F}));
  const TfExample back = TfExample::parse(ex.serialize());
  EXPECT_THROW((void)back.bytes_feature("x"), FormatError);
  EXPECT_THROW((void)back.float_feature("missing"), FormatError);
  // Wrong kind also throws.
  EXPECT_THROW((void)back.int64_feature("y"), FormatError);
}

TEST(TfExample, RejectsGarbage) {
  const Bytes junk = {0xFF, 0x12, 0x00, 0x99};
  EXPECT_THROW(TfExample::parse(junk), Error);
}

TEST(TfExample, EmptyExampleRoundTrips) {
  const TfExample ex;
  const TfExample back = TfExample::parse(ex.serialize());
  EXPECT_TRUE(back.features.empty());
}

TEST(H5Lite, RoundTripsDatasets) {
  H5File file;
  std::vector<float> climate(16 * 8 * 12);
  for (std::size_t i = 0; i < climate.size(); ++i) {
    climate[i] = static_cast<float>(i) * 0.25F;
  }
  file.add_array<float>("climate", DType::kF32, {16, 8, 12},
                        std::span<const float>(climate));
  std::vector<std::uint8_t> mask(8 * 12, 2);
  file.add_array<std::uint8_t>("labels", DType::kU8, {8, 12},
                               std::span<const std::uint8_t>(mask));

  const Bytes wire = file.serialize(/*chunk_size=*/256);
  const H5File back = H5File::parse(wire);
  ASSERT_TRUE(back.contains("climate"));
  ASSERT_TRUE(back.contains("labels"));
  const auto got = back.dataset("climate").as_span<float>();
  ASSERT_EQ(got.size(), climate.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), climate.begin()));
  EXPECT_EQ(back.dataset("climate").shape,
            (std::vector<std::uint64_t>{16, 8, 12}));
  EXPECT_EQ(back.dataset("labels").as_span<std::uint8_t>()[5], 2);
}

TEST(H5Lite, AttributesSurvive) {
  H5File file;
  Dataset d;
  d.name = "t";
  d.dtype = DType::kU8;
  d.shape = {2};
  d.data = {1, 2};
  d.attrs["units"] = "kelvin";
  d.attrs["source"] = "cam5";
  file.add(std::move(d));
  const H5File back = H5File::parse(file.serialize());
  EXPECT_EQ(back.dataset("t").attrs.at("units"), "kelvin");
  EXPECT_EQ(back.dataset("t").attrs.at("source"), "cam5");
}

TEST(H5Lite, RejectsDuplicateNames) {
  H5File file;
  file.add_array<std::uint8_t>("a", DType::kU8, {1},
                               std::span<const std::uint8_t>(Bytes{1}));
  EXPECT_THROW(file.add_array<std::uint8_t>(
                   "a", DType::kU8, {1}, std::span<const std::uint8_t>(Bytes{2})),
               FormatError);
}

TEST(H5Lite, RejectsShapeDataMismatch) {
  H5File file;
  Dataset d;
  d.name = "bad";
  d.dtype = DType::kF32;
  d.shape = {10};
  d.data = Bytes(12);  // 3 floats, not 10
  EXPECT_THROW(file.add(std::move(d)), FormatError);
}

TEST(H5Lite, TruncatedChunkDataNamesOffset) {
  H5File file;
  file.add_array<std::uint8_t>("t", DType::kU8, {64},
                               std::span<const std::uint8_t>(Bytes(64, 9)));
  const Bytes wire = file.serialize(/*chunk_size=*/64);
  // Cut into the chunk payload: the declared 64-byte chunk now runs past EOF.
  const ByteSpan cut = ByteSpan(wire).first(wire.size() - 10);
  try {
    H5File::parse(cut);
    FAIL() << "expected TruncatedError";
  } catch (const TruncatedError& e) {
    EXPECT_EQ(e.offset(), wire.size() - 64 - 12);
    EXPECT_NE(std::string(e.what()).find("dataset 't'"), std::string::npos);
  }
}

TEST(H5Lite, TruncatedChunkHeaderNamesOffset) {
  H5File file;
  file.add_array<std::uint8_t>("t", DType::kU8, {64},
                               std::span<const std::uint8_t>(Bytes(64, 9)));
  const Bytes wire = file.serialize(/*chunk_size=*/64);
  // Cut inside the 12-byte chunk header itself.
  const std::size_t header_at = wire.size() - 64 - 12;
  const ByteSpan cut = ByteSpan(wire).first(header_at + 5);
  try {
    H5File::parse(cut);
    FAIL() << "expected TruncatedError";
  } catch (const TruncatedError& e) {
    EXPECT_EQ(e.offset(), header_at);
  }
}

TEST(H5Lite, DetectsChunkCorruption) {
  H5File file;
  std::vector<float> v(1000, 1.5F);
  file.add_array<float>("v", DType::kF32, {1000}, std::span<const float>(v));
  Bytes wire = file.serialize(/*chunk_size=*/512);
  wire[wire.size() - 100] ^= 0x10;
  EXPECT_THROW(H5File::parse(wire), FormatError);
}

TEST(H5Lite, WrongTypedViewThrows) {
  H5File file;
  std::vector<float> v(4, 1.0F);
  file.add_array<float>("v", DType::kF32, {4}, std::span<const float>(v));
  EXPECT_THROW((void)file.dataset("v").as_span<std::uint16_t>(), FormatError);
}

TEST(CosmoSample, ExampleRoundTrip) {
  CosmoSample s;
  s.dim = 8;
  s.counts.resize(s.value_count());
  Rng rng(6);
  for (auto& c : s.counts) {
    c = static_cast<std::int32_t>(rng.next_below(100));
  }
  s.params = {0.3F, 0.8F, 0.96F, 0.7F};

  const Bytes wire = s.serialize();
  const CosmoSample back = CosmoSample::parse(wire);
  EXPECT_EQ(back.dim, 8);
  EXPECT_EQ(back.counts, s.counts);
  EXPECT_EQ(back.params, s.params);
  EXPECT_EQ(back.at(1, 2, 3, 0), s.counts[((3 * 8 + 2) * 8 + 1) * 4]);
}

TEST(CosmoSample, RejectsSizePayloadMismatch) {
  CosmoSample s;
  s.dim = 8;
  s.counts.resize(s.value_count());
  s.params = {1, 2, 3, 4};
  TfExample ex = s.to_example();
  ex.features.at("size").int64_list[0] = 16;  // lie about the size
  EXPECT_THROW(CosmoSample::from_example(ex), FormatError);
}

TEST(CamSample, H5RoundTrip) {
  CamSample s;
  s.height = 6;
  s.width = 10;
  s.channels = 3;
  s.image.resize(s.value_count());
  for (std::size_t i = 0; i < s.image.size(); ++i) {
    s.image[i] = static_cast<float>(i) - 50.0F;
  }
  s.labels.assign(s.pixel_count(), 0);
  s.labels[13] = 1;

  const CamSample back = CamSample::parse(s.serialize());
  EXPECT_EQ(back.height, 6);
  EXPECT_EQ(back.width, 10);
  EXPECT_EQ(back.channels, 3);
  EXPECT_EQ(back.image, s.image);
  EXPECT_EQ(back.labels, s.labels);
  EXPECT_EQ(back.at(1, 2, 3), s.image[(1 * 6 + 2) * 10 + 3]);
  EXPECT_EQ(back.line(2, 5).size(), 10u);
}

TEST(FileIo, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/sciprep_io_test.bin";
  Bytes data(4096);
  Rng rng(8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  write_file(path, data);
  EXPECT_EQ(read_file(path), data);
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/definitely/missing.bin"), IoError);
}

}  // namespace
}  // namespace sciprep::io
