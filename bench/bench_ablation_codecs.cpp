// Ablation bench — isolates each design choice the paper motivates:
//   CosmoFlow codec: RLE broadcast stream on/off; fused log1p on the table
//     vs log1p over the full volume; lookup-table size cap (multi-table).
//   DeepCAM codec: segment-length cap sweep (error vs size); CHW vs HWC
//     output layout (the fused transpose); lossy error tail per setting.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/data/cosmo_gen.hpp"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <class F>
double timed_ms(F&& f, int repeat = 3) {
  const double t0 = now_seconds();
  for (int i = 0; i < repeat; ++i) f();
  return (now_seconds() - t0) * 1e3 / repeat;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sciprep;
  const auto args = benchutil::parse_bench_args(argc, argv);
  const int dim = args.pos_int(0, 64);
  apps::BenchReporter reporter("ablation_codecs");
  reporter.set_config(fmt("dim={}", dim));

  benchutil::print_header("Ablation — CosmoFlow codec design choices");
  {
    data::CosmoGenConfig cfg;
    cfg.dim = dim;
    cfg.seed = 55;
    const auto sample = data::CosmoGenerator(cfg).generate(0);
    std::printf("%-34s %-12s %-10s %-12s %-12s\n", "variant", "bytes", "ratio",
                "encode ms", "decode ms");
    struct Variant {
      const char* name;
      codec::CosmoEncodeOptions options;
    };
    const Variant variants[] = {
        {"default (rle, fused log1p)", {}},
        {"no RLE broadcast", {.fuse_log1p = true, .rle = false}},
        {"no fused log1p", {.fuse_log1p = false, .rle = true}},
        {"table cap 4096 (multi-table)",
         {.fuse_log1p = true, .rle = true, .max_groups_per_block = 4096}},
        {"table cap 256 (1-byte keys)",
         {.fuse_log1p = true, .rle = true, .max_groups_per_block = 256}},
    };
    for (const auto& v : variants) {
      const codec::CosmoCodec codec(v.options);
      Bytes encoded;
      const double enc = timed_ms([&] { encoded = codec.encode_sample(sample); }, 1);
      const double dec =
          timed_ms([&] { (void)codec.decode_cpu(encoded); });
      const auto info = codec::CosmoCodec::inspect(encoded);
      std::printf("%-34s %-12zu %-10.2f %-12.1f %-12.2f  (%u tables)\n",
                  v.name, encoded.size(),
                  static_cast<double>(sample.byte_size()) / encoded.size(), enc,
                  dec, info.block_count);
    }
    // The fused-log1p win in isolation: table-only transform vs full volume.
    const codec::CosmoCodec fused;
    const Bytes encoded = fused.encode_sample(sample);
    const double plugin_dec =
        timed_ms([&] { (void)fused.decode_cpu(encoded); });
    const double full_prep = timed_ms(
        [&] { (void)codec::CosmoCodec::reference_preprocess_sample(sample); });
    std::printf(
        "\nfused log1p on table vs full-volume preprocessing: %.2f ms vs "
        "%.2f ms (%.1fx)\n",
        plugin_dec, full_prep, full_prep / plugin_dec);
    reporter.add_metric("cosmo.decode_ms.fused", plugin_dec, "ms", "measured",
                        /*better_higher=*/false);
    reporter.add_metric("cosmo.fused_log1p_speedup", full_prep / plugin_dec,
                        "x", "measured", /*better_higher=*/true);
  }

  benchutil::print_header("Ablation — DeepCAM codec design choices");
  {
    data::CamGenConfig cfg;
    cfg.height = 192;
    cfg.width = 288;
    cfg.channels = 16;
    cfg.seed = 56;
    const auto sample = data::CamGenerator(cfg).generate(0);

    // Normalized FP32 reference for the error tail.
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

    std::printf("%-30s %-12s %-10s %-12s %-12s %-10s\n", "variant", "bytes",
                "ratio", "decode ms", ">10%err", "rawLines");
    for (const int seg_len : {32, 64, 256, 4096}) {
      codec::CamEncodeOptions opt;
      opt.max_segment_length = seg_len;
      const codec::CamCodec codec(opt);
      const Bytes encoded = codec.encode_sample(sample);
      codec::TensorF16 decoded;
      const double dec =
          timed_ms([&] { decoded = codec.decode_cpu(encoded); });
      const auto info = codec::CamCodec::inspect(encoded);
      std::printf("%-30s %-12zu %-10.2f %-12.2f %-12.4f %-10llu\n",
                  fmt("segment cap {}", seg_len).c_str(), encoded.size(),
                  static_cast<double>(sample.byte_size()) / encoded.size(), dec,
                  codec::fraction_above_rel_error(reference, decoded.values),
                  static_cast<unsigned long long>(info.raw_lines));
    }

    // Fused transpose: decode directly to HWC vs CHW (same encoded bytes).
    const codec::CamCodec chw({}, {codec::CamLayout::kCHW});
    const codec::CamCodec hwc({}, {codec::CamLayout::kHWC});
    const Bytes encoded = chw.encode_sample(sample);
    const double t_chw = timed_ms([&] { (void)chw.decode_cpu(encoded); });
    const double t_hwc = timed_ms([&] { (void)hwc.decode_cpu(encoded); });
    sim::SimGpu g1({.sm_count = 16, .warps_per_sm = 4});
    sim::SimGpu g2({.sm_count = 16, .warps_per_sm = 4});
    (void)chw.decode_gpu(encoded, g1);
    (void)hwc.decode_gpu(encoded, g2);
    std::printf(
        "\nfused transpose: CHW decode %.2f ms, HWC decode %.2f ms; engine "
        "divergence CHW=%llu HWC=%llu (strided stores)\n",
        t_chw, t_hwc,
        static_cast<unsigned long long>(g1.lifetime_stats().divergent_branches),
        static_cast<unsigned long long>(g2.lifetime_stats().divergent_branches));
    reporter.add_metric("cam.decode_ms.chw", t_chw, "ms", "measured",
                        /*better_higher=*/false);
  }
  benchutil::finish(args, reporter);
  return 0;
}
