// §V reproduction — compressibility analysis for both workloads:
//   * CosmoFlow: lookup-table ratio (~4x in the paper) vs gzip (~5x), and
//     the table/key byte split,
//   * DeepCAM: differential-encoding ratio, per-line mode census
//     (constant / delta / raw), segment statistics, and the lossy error tail
//     ("roughly 3% of the values with larger than 10% error"),
//   * the unique-value factoring that makes fused log1p cheap.
#include <cmath>
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/compress/gzip.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/data/cosmo_gen.hpp"

int main(int argc, char** argv) {
  using namespace sciprep;
  const auto args = benchutil::parse_bench_args(argc, argv);
  const int cosmo_dim = args.pos_int(0, 128);
  const int cam_h = args.pos_int(1, 768);
  const int cam_w = args.pos_int(2, 1152);
  apps::BenchReporter reporter("sec5_compression");
  reporter.set_config(
      fmt("cosmo_dim={} cam_h={} cam_w={}", cosmo_dim, cam_h, cam_w));

  benchutil::print_header("Section V.B — CosmoFlow compressibility");
  {
    data::CosmoGenConfig cfg;
    cfg.dim = cosmo_dim;
    cfg.seed = 31;
    const data::CosmoGenerator gen(cfg);
    const codec::CosmoCodec codec;
    std::printf("%-8s %-10s %-10s %-10s %-10s %-10s %-10s %-10s\n", "sample",
                "raw MiB", "lut MiB", "lutRatio", "gzip MiB", "gzipRatio",
                "tables", "groups");
    for (int s = 0; s < 3; ++s) {
      const auto sample = gen.generate(static_cast<std::uint64_t>(s));
      const Bytes raw = sample.serialize();
      const Bytes encoded = codec.encode_sample(sample);
      const Bytes zipped = compress::gzip_compress(raw);
      const auto info = codec::CosmoCodec::inspect(encoded);
      if (s == 0) {
        reporter.add_metric("cosmo.lut_ratio",
                            static_cast<double>(raw.size()) / encoded.size(),
                            "x", "measured");
        reporter.add_metric("cosmo.gzip_ratio",
                            static_cast<double>(raw.size()) / zipped.size(),
                            "x", "measured");
      }
      std::printf("%-8d %-10.2f %-10.2f %-10.2f %-10.2f %-10.2f %-10u %-10llu\n",
                  s, raw.size() / 1048576.0, encoded.size() / 1048576.0,
                  static_cast<double>(raw.size()) / encoded.size(),
                  zipped.size() / 1048576.0,
                  static_cast<double>(raw.size()) / zipped.size(),
                  info.block_count,
                  static_cast<unsigned long long>(info.total_groups));
      // The fused-preprocessing ratio: the decode applies log1p once per
      // distinct count and reads the result for each group-table entry.
      const std::set<std::int32_t> unique(sample.counts.begin(),
                                          sample.counts.end());
      std::printf(
          "  fused log1p: %zu distinct counts instead of %zu volume values "
          "(%.0fx less work); %llu group-table entries read\n",
          unique.size(), sample.counts.size(),
          static_cast<double>(sample.counts.size()) /
              static_cast<double>(unique.size()),
          static_cast<unsigned long long>(info.total_groups * 4));
    }
    std::printf(
        "paper: table encoding ~4x vs gzip ~5x, but only the table decodes "
        "on the GPU.\n");
  }

  benchutil::print_header("Section V.A — DeepCAM compressibility & loss");
  {
    data::CamGenConfig cfg;
    cfg.height = cam_h;
    cfg.width = cam_w;
    cfg.channels = 16;
    cfg.seed = 32;
    const data::CamGenerator gen(cfg);
    const codec::CamCodec codec;
    std::printf("%-8s %-10s %-10s %-8s %-9s %-8s %-8s %-10s %-12s\n", "sample",
                "raw MiB", "enc MiB", "ratio", "constant", "delta", "raw",
                "segs/line", ">10%err");
    for (int s = 0; s < 3; ++s) {
      const auto sample = gen.generate(static_cast<std::uint64_t>(s));
      const Bytes raw = sample.serialize();
      const Bytes encoded = codec.encode_sample(sample);
      const auto info = codec::CamCodec::inspect(encoded);
      const auto decoded = codec.decode_cpu(encoded);

      // Reference: FP32 normalized values.
      std::vector<float> reference(sample.value_count());
      for (int c = 0; c < sample.channels; ++c) {
        const float* plane = sample.image.data() +
                             static_cast<std::size_t>(c) * sample.pixel_count();
        double sum = 0;
        for (std::size_t i = 0; i < sample.pixel_count(); ++i) sum += plane[i];
        const double mean = sum / static_cast<double>(sample.pixel_count());
        double var = 0;
        for (std::size_t i = 0; i < sample.pixel_count(); ++i) {
          var += (plane[i] - mean) * (plane[i] - mean);
        }
        var /= static_cast<double>(sample.pixel_count());
        const double inv = 1.0 / std::sqrt(std::max(var, 1e-12));
        for (std::size_t i = 0; i < sample.pixel_count(); ++i) {
          reference[static_cast<std::size_t>(c) * sample.pixel_count() + i] =
              static_cast<float>((plane[i] - mean) * inv);
        }
      }
      const double bad =
          codec::fraction_above_rel_error(reference, decoded.values, 0.10);
      if (s == 0) {
        reporter.add_metric("cam.diff_ratio",
                            static_cast<double>(raw.size()) / encoded.size(),
                            "x", "measured");
        reporter.add_metric("cam.error_tail_gt10pct", bad, "fraction",
                            "measured", /*better_higher=*/false);
      }
      std::printf(
          "%-8d %-10.2f %-10.2f %-8.2f %-9llu %-8llu %-8llu %-10.2f %-12.4f\n",
          s, raw.size() / 1048576.0, encoded.size() / 1048576.0,
          static_cast<double>(raw.size()) / encoded.size(),
          static_cast<unsigned long long>(info.constant_lines),
          static_cast<unsigned long long>(info.delta_lines),
          static_cast<unsigned long long>(info.raw_lines),
          static_cast<double>(info.segments) /
              std::max<std::uint64_t>(1, info.delta_lines),
          bad);
    }
    std::printf(
        "paper: ~3%% of values with >10%% error (near-zero values); the "
        ">10%%err column is the measured tail.\n");
  }
  benchutil::finish(args, reporter);
  return 0;
}
