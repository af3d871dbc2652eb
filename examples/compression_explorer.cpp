// Compression explorer: writes a sample of either workload to disk in every
// storage variant (raw, gzip, codec), reads them back, and reports sizes,
// timings and decode quality — a small CLI for poking at the §V trade-offs.
//
// Usage: compression_explorer [cosmo|cam] [dim|height] [out_dir=/tmp]
#include <chrono>
#include <cstdio>
#include <string>

#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/compress/gzip.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/data/cosmo_gen.hpp"
#include "sciprep/io/tfrecord.hpp"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <class F>
double timed(F&& f) {
  const double t0 = now_seconds();
  f();
  return (now_seconds() - t0) * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sciprep;
  const std::string workload = argc > 1 ? argv[1] : "cosmo";
  const int size = argc > 2 ? std::atoi(argv[2]) : (workload == "cosmo" ? 64 : 384);
  const std::string out_dir = argc > 3 ? argv[3] : "/tmp";

  std::printf("%-14s %-12s %-10s %-12s %-12s\n", "variant", "bytes", "ratio",
              "encode ms", "decode ms");

  if (workload == "cosmo") {
    data::CosmoGenConfig cfg;
    cfg.dim = size;
    cfg.seed = 1;
    const auto sample = data::CosmoGenerator(cfg).generate(0);
    const codec::CosmoCodec codec;

    io::TfRecordWriter w;
    w.append(sample.serialize());
    const Bytes raw = std::move(w).take();
    io::write_file(out_dir + "/sample.tfrecord", raw);

    Bytes zipped;
    const double gzip_enc = timed([&] { zipped = compress::gzip_compress(raw); });
    io::write_file(out_dir + "/sample.tfrecord.gz", zipped);
    double gzip_dec = timed([&] { (void)compress::gzip_decompress(zipped); });

    Bytes encoded;
    const double lut_enc = timed([&] { encoded = codec.encode_sample(sample); });
    io::write_file(out_dir + "/sample.cse", encoded);
    const Bytes back = io::read_file(out_dir + "/sample.cse");
    double lut_dec = timed([&] { (void)codec.decode_cpu(back); });

    double base_prep = timed(
        [&] { (void)codec::CosmoCodec::reference_preprocess_sample(sample); });

    std::printf("%-14s %-12zu %-10.2f %-12s %-12.2f\n", "raw tfrecord",
                raw.size(), 1.0, "-", base_prep);
    std::printf("%-14s %-12zu %-10.2f %-12.2f %-12.2f\n", "gzip", zipped.size(),
                static_cast<double>(raw.size()) / zipped.size(), gzip_enc,
                gzip_dec + base_prep);
    std::printf("%-14s %-12zu %-10.2f %-12.2f %-12.2f\n", "cosmo-lut",
                encoded.size(), static_cast<double>(raw.size()) / encoded.size(),
                lut_enc, lut_dec);
    std::printf("\n(gzip decode still pays the baseline preprocessing; the "
                "codec's decode IS the preprocessing)\n");
  } else if (workload == "cam") {
    data::CamGenConfig cfg;
    cfg.height = size;
    cfg.width = size * 3 / 2;
    cfg.channels = 16;
    cfg.seed = 1;
    const auto sample = data::CamGenerator(cfg).generate(0);
    const codec::CamCodec codec;

    const Bytes raw = sample.serialize();
    io::write_file(out_dir + "/sample.h5l", raw);

    Bytes encoded;
    const double enc_ms = timed([&] { encoded = codec.encode_sample(sample); });
    io::write_file(out_dir + "/sample.cae", encoded);
    const Bytes back = io::read_file(out_dir + "/sample.cae");
    codec::TensorF16 decoded;
    const double dec_ms =
        timed([&] { decoded = codec.decode_cpu(back); });
    const double base_prep = timed(
        [&] { (void)codec::CamCodec::reference_preprocess_sample(sample); });

    std::printf("%-14s %-12zu %-10.2f %-12s %-12.2f\n", "raw h5", raw.size(),
                1.0, "-", base_prep);
    std::printf("%-14s %-12zu %-10.2f %-12.2f %-12.2f\n", "cam-delta",
                encoded.size(), static_cast<double>(raw.size()) / encoded.size(),
                enc_ms, dec_ms);
    const auto info = codec::CamCodec::inspect(back);
    std::printf("\nline census: %llu delta / %llu raw / %llu constant; "
                "%.2f segments per delta line\n",
                static_cast<unsigned long long>(info.delta_lines),
                static_cast<unsigned long long>(info.raw_lines),
                static_cast<unsigned long long>(info.constant_lines),
                static_cast<double>(info.segments) /
                    std::max<std::uint64_t>(1, info.delta_lines));
  } else {
    std::fprintf(stderr, "usage: %s [cosmo|cam] [size] [out_dir]\n", argv[0]);
    return 2;
  }
  return 0;
}
