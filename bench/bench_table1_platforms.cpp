// Table I + Table II reproduction: the evaluated platform models and the
// software-stack inventory of this reproduction (codecs, storage formats,
// pipeline components standing in for the paper's framework stack).
#include <cstdio>

#include "bench_util.hpp"
#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/pipeline/dataset.hpp"

int main(int argc, char** argv) {
  using namespace sciprep;
  const auto args = benchutil::parse_bench_args(argc, argv);
  apps::BenchReporter reporter("table1_platforms");
  reporter.set_config("presets");

  benchutil::print_header(
      "Table I — System architecture for evaluated systems (model presets)");
  const auto platforms = sim::all_platforms();
  const std::vector<int> w = {22, 12, 18, 14};
  benchutil::print_row({"", "Summit", "Cori V100", "Cori A100"}, w);
  auto row = [&](const char* label, auto getter) {
    std::vector<std::string> cells = {label};
    for (const auto& p : platforms) cells.push_back(getter(p));
    benchutil::print_row(cells, w);
  };
  row("Host Processor (CPU)", [](const sim::PlatformModel& p) { return p.cpu_name; });
  row("CPU Freq (GHz)", [](const sim::PlatformModel& p) { return fmt("{:.2f}", p.cpu_freq_ghz); });
  row("Host Memory (GB)", [](const sim::PlatformModel& p) { return fmt("{}", static_cast<int>(p.host_memory_gb)); });
  row("CPU-GPU Interconnect", [](const sim::PlatformModel& p) {
    switch (p.host_link) {
      case sim::HostLink::kNvlink: return std::string("NVLink");
      case sim::HostLink::kPcie3: return std::string("PCIe Gen 3.0");
      case sim::HostLink::kPcie4: return std::string("PCIe Gen 4.0");
    }
    return std::string("?");
  });
  row("GPU", [](const sim::PlatformModel& p) { return p.gpu.name; });
  row("GPUs per node", [](const sim::PlatformModel& p) { return fmt("{}", p.gpus_per_node); });
  row("L2 Cache (MB)", [](const sim::PlatformModel& p) { return fmt("{}", static_cast<int>(p.gpu.l2_cache_mb)); });
  row("SM", [](const sim::PlatformModel& p) { return fmt("{}", p.gpu.sm_count); });
  row("Mem Capacity (GB)", [](const sim::PlatformModel& p) { return fmt("{}", static_cast<int>(p.gpu.mem_capacity_gb)); });
  row("BW to GPU Mem (TB/s)", [](const sim::PlatformModel& p) { return fmt("{:.1f}", p.gpu.mem_bandwidth_tbps); });
  row("GPU FP32 TF/s", [](const sim::PlatformModel& p) { return fmt("{:.1f}", p.gpu.fp32_tflops); });
  row("Tensorcore TF/s", [](const sim::PlatformModel& p) { return fmt("{}", static_cast<int>(p.gpu.tensorcore_tflops)); });
  row("NVMe Capacity (TB)", [](const sim::PlatformModel& p) { return fmt("{:.1f}", p.nvme_capacity_tb); });
  row("NVMe Read BW (GiB/s)", [](const sim::PlatformModel& p) { return fmt("{:.1f}", p.nvme_read_gibps); });

  benchutil::print_header(
      "Table II equivalent — software inventory of this reproduction");
  std::printf("workload   framework-role component      this repo\n");
  std::printf("CosmoFlow  TF input pipeline + TFRecord   sciprep::pipeline + io::TfRecord (masked CRC32C)\n");
  std::printf("CosmoFlow  tf.Example protobuf            io::TfExample (from-scratch wire codec)\n");
  std::printf("CosmoFlow  gzip TFRecordOptions           compress::gzip (from-scratch DEFLATE)\n");
  std::printf("DeepCAM    PyTorch loader + HDF5          sciprep::pipeline + io::h5lite\n");
  std::printf("both       DALI plugin                    codec::SampleCodec registry (cpu/gpu placement)\n");
  std::printf("both       CUDA device                    sim::SimGpu (warp-lockstep engine + Table I scaling)\n");
  std::printf("both       AMP mixed precision            common::Half (SW binary16) + FP32 master compute\n");

  const codec::CosmoCodec cosmo;
  const codec::CamCodec cam;
  std::printf("\nregistered codec plugins: %s, %s\n", cosmo.name().c_str(),
              cam.name().c_str());
  reporter.add_metric("platform_presets", static_cast<double>(platforms.size()),
                      "count", "measured");
  benchutil::finish(args, reporter);
  return 0;
}
