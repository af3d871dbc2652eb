// Micro-benchmarks (google-benchmark) for the hot paths: codec encode/decode
// on CPU and SimGpu, the gzip baseline, FP16 conversion, TFRecord framing,
// and the end-to-end pipeline batch path. These feed the per-sample costs in
// EXPERIMENTS.md and let regressions in the decoders show up as numbers.
#include <benchmark/benchmark.h>

#include "bench_gbench.hpp"
#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/compress/gzip.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/data/cosmo_gen.hpp"
#include "sciprep/io/tfrecord.hpp"
#include "sciprep/pipeline/pipeline.hpp"

namespace {

using namespace sciprep;

io::CosmoSample cosmo_sample(int dim) {
  data::CosmoGenConfig cfg;
  cfg.dim = dim;
  cfg.seed = 1001;
  return data::CosmoGenerator(cfg).generate(0);
}

io::CamSample cam_sample(int h, int w, int c) {
  data::CamGenConfig cfg;
  cfg.height = h;
  cfg.width = w;
  cfg.channels = c;
  cfg.seed = 1002;
  return data::CamGenerator(cfg).generate(0);
}

void BM_CosmoEncode(benchmark::State& state) {
  const auto sample = cosmo_sample(static_cast<int>(state.range(0)));
  const codec::CosmoCodec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode_sample(sample));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sample.byte_size()));
}
BENCHMARK(BM_CosmoEncode)->Arg(32)->Arg(64);

void BM_CosmoDecodeCpu(benchmark::State& state) {
  const auto sample = cosmo_sample(static_cast<int>(state.range(0)));
  const codec::CosmoCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode_cpu(encoded));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sample.byte_size()));
}
BENCHMARK(BM_CosmoDecodeCpu)->Arg(32)->Arg(64);

void BM_CosmoDecodeGpu(benchmark::State& state) {
  const auto sample = cosmo_sample(static_cast<int>(state.range(0)));
  const codec::CosmoCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  sim::SimGpu gpu({.sm_count = 80, .warps_per_sm = 8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode_gpu(encoded, gpu));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sample.byte_size()));
}
BENCHMARK(BM_CosmoDecodeGpu)->Arg(32)->Arg(64);

void BM_CosmoBaselinePreprocess(benchmark::State& state) {
  const auto sample = cosmo_sample(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::CosmoCodec::reference_preprocess_sample(sample));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sample.byte_size()));
}
BENCHMARK(BM_CosmoBaselinePreprocess)->Arg(32)->Arg(64);

void BM_CamEncode(benchmark::State& state) {
  const auto sample = cam_sample(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(0)) * 3 / 2, 16);
  const codec::CamCodec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode_sample(sample));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sample.byte_size()));
}
BENCHMARK(BM_CamEncode)->Arg(96)->Arg(192);

void BM_CamDecodeCpu(benchmark::State& state) {
  const auto sample = cam_sample(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(0)) * 3 / 2, 16);
  const codec::CamCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode_cpu(encoded));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sample.byte_size()));
}
BENCHMARK(BM_CamDecodeCpu)->Arg(96)->Arg(192);

void BM_CamDecodeGpu(benchmark::State& state) {
  const auto sample = cam_sample(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(0)) * 3 / 2, 16);
  const codec::CamCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  sim::SimGpu gpu({.sm_count = 80, .warps_per_sm = 8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode_gpu(encoded, gpu));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sample.byte_size()));
}
BENCHMARK(BM_CamDecodeGpu)->Arg(96)->Arg(192);

void BM_GzipCompress(benchmark::State& state) {
  const auto sample = cosmo_sample(32);
  io::TfRecordWriter w;
  w.append(sample.serialize());
  const Bytes stream = std::move(w).take();
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::gzip_compress(stream));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_GzipCompress);

void BM_GzipDecompress(benchmark::State& state) {
  const auto sample = cosmo_sample(32);
  io::TfRecordWriter w;
  w.append(sample.serialize());
  const Bytes stream = std::move(w).take();
  const Bytes zipped = compress::gzip_compress(stream);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::gzip_decompress(zipped));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_GzipDecompress);

// Arg 0: the scalar fp32_to_fp16_bits loop; arg 1: the span convert the
// decoders emit through (F16C where the CPU has it). Items are values.
void BM_Fp16Convert(benchmark::State& state) {
  std::vector<float> values(1 << 16);
  Rng rng(1);
  for (auto& v : values) v = static_cast<float>(rng.normal() * 100);
  std::vector<Half> out(values.size());
  const bool span = state.range(0) != 0;
  for (auto _ : state) {
    if (span) {
      fp32_to_fp16_n(values.data(), out.data(), values.size());
    } else {
      for (std::size_t i = 0; i < values.size(); ++i) {
        out[i] = Half::from_bits(fp32_to_fp16_bits(values[i]));
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_Fp16Convert)->Arg(0)->Arg(1);

void BM_TfRecordRoundTrip(benchmark::State& state) {
  Bytes payload(1 << 20, 0x5A);
  for (auto _ : state) {
    io::TfRecordWriter w;
    w.append(payload);
    const Bytes stream = std::move(w).take();
    benchmark::DoNotOptimize(io::TfRecordReader::read_all(stream));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_TfRecordRoundTrip);

void BM_PipelineBatch(benchmark::State& state) {
  data::CosmoGenConfig cfg;
  cfg.dim = 32;
  cfg.seed = 5;
  const data::CosmoGenerator gen(cfg);
  const codec::CosmoCodec codec;
  const auto ds = pipeline::InMemoryDataset::make_cosmo(
      gen, 16, pipeline::StorageFormat::kEncoded, &codec, 4);
  pipeline::PipelineConfig pcfg;
  pcfg.batch_size = 4;
  pcfg.prefetch = false;
  pipeline::DataPipeline pipe(ds, codec, pcfg);
  std::uint64_t epoch = 0;
  pipeline::Batch batch;
  for (auto _ : state) {
    if (!pipe.next_batch(batch)) {
      pipe.start_epoch(++epoch);
      pipe.next_batch(batch);
    }
    benchmark::DoNotOptimize(batch.samples.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_PipelineBatch);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::gbench_main(argc, argv, "micro_codecs");
}
