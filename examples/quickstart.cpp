// Quickstart: the core sciprep workflow in ~60 lines.
//
//   1. synthesize a CosmoFlow sample (stand-in for the N-body dataset),
//   2. encode it with the lookup-table codec,
//   3. decode it on the CPU and on the simulated GPU — with the log1p
//      preprocessing fused and FP16 output,
//   4. verify the decode matches the baseline preprocessing bit-for-bit.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "sciprep/common/stats.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/data/cosmo_gen.hpp"
#include "sciprep/sim/simgpu.hpp"

int main() {
  using namespace sciprep;

  // 1. A 64^3 universe at 4 redshifts, labelled with its cosmological params.
  data::CosmoGenConfig gen_cfg;
  gen_cfg.dim = 64;
  gen_cfg.seed = 42;
  const data::CosmoGenerator generator(gen_cfg);
  const io::CosmoSample sample = generator.generate(/*index=*/0);
  std::printf("sample: %d^3 voxels x 4 redshifts, %zu values, labels "
              "(Om=%.3f s8=%.3f ns=%.3f h=%.3f)\n",
              sample.dim, sample.value_count(), sample.params[0],
              sample.params[1], sample.params[2], sample.params[3]);

  // 2. Encode: unique groups of 4 redshift counts become table keys.
  const codec::CosmoCodec codec;  // defaults: fused log1p, RLE broadcast
  const Bytes encoded = codec.encode_sample(sample);
  const auto info = codec::CosmoCodec::inspect(encoded);
  std::printf("encoded: %zu -> %zu bytes (%.2fx), %u lookup table(s), "
              "%llu unique groups\n",
              sample.byte_size(), encoded.size(),
              static_cast<double>(sample.byte_size()) / encoded.size(),
              info.block_count,
              static_cast<unsigned long long>(info.total_groups));

  // 3a. CPU decode (what the CPU-placed DALI plugin does).
  const codec::TensorF16 on_cpu = codec.decode_cpu(encoded);

  // 3b. GPU decode on the warp-lockstep engine (the GPU-placed plugin).
  sim::SimGpu gpu({.sm_count = 80, .warps_per_sm = 8});
  const codec::TensorF16 on_gpu = codec.decode_gpu(encoded, gpu);
  const auto& ks = gpu.lifetime_stats();
  std::printf("gpu decode: %llu warps, %s moved, %llu divergent branches\n",
              static_cast<unsigned long long>(ks.warps),
              format_bytes(ks.bytes_total()).c_str(),
              static_cast<unsigned long long>(ks.divergent_branches));

  // 4. Both decodes must equal the baseline preprocessing exactly: fp16
  //    output, log1p already applied, labels lossless.
  const codec::TensorF16 reference =
      codec::CosmoCodec::reference_preprocess_sample(sample);
  for (std::size_t i = 0; i < reference.values.size(); ++i) {
    if (on_cpu.values[i].bits() != reference.values[i].bits() ||
        on_gpu.values[i].bits() != reference.values[i].bits()) {
      std::printf("MISMATCH at value %zu\n", i);
      return 1;
    }
  }
  std::printf("verified: CPU and GPU decodes match the baseline "
              "preprocessing bit-for-bit (%zu FP16 values)\n",
              reference.values.size());
  return 0;
}
