// Allocation test for steady-state wire serving: a process-wide counting
// operator new watches a WireServer + WireClient pair deliver same-shape
// batches and proves the served byte path recycles its buffers — the
// server's BATCH frames (retained + read-ahead swap storage) and the
// client's decoded tensors (decoded into a client-owned batch, swapped with
// the caller's), and the client's request frames (one reused send
// buffer). A binary of its own, because replacing operator new is
// process-wide.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/pipeline/ops.hpp"
#include "sciprep/pipeline/pipeline.hpp"
#include "sciprep/serve/service.hpp"
#include "sciprep/wire/client.hpp"
#include "sciprep/wire/server.hpp"

namespace {

/// While armed, count allocations of at least g_any_floor bytes on any
/// thread, and on the thread that set t_watched both every allocation and
/// those of at least g_here_floor bytes.
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_any_floor{0};
std::atomic<std::size_t> g_here_floor{0};
std::atomic<std::uint64_t> g_any_big{0};
std::atomic<std::uint64_t> g_here_big{0};
std::atomic<std::uint64_t> g_here_all{0};
thread_local bool t_watched = false;

void* counted_alloc(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    if (n >= g_any_floor.load(std::memory_order_relaxed)) {
      g_any_big.fetch_add(1, std::memory_order_relaxed);
    }
    if (t_watched) {
      g_here_all.fetch_add(1, std::memory_order_relaxed);
      if (n >= g_here_floor.load(std::memory_order_relaxed)) {
        g_here_big.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*n*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*n*/) noexcept { std::free(p); }

namespace sciprep::wire {
namespace {

TEST(WireAlloc, SteadyStateServingAllocatesNoFrameAndNoSampleTensor) {
  constexpr std::size_t kSamples = 8;
  constexpr int kBatch = 2;
  constexpr int kWarmup = 4;
  constexpr int kMeasured = 50;
  data::CamGenConfig gen_cfg;
  gen_cfg.channels = 4;
  gen_cfg.height = 64;
  gen_cfg.width = 64;
  gen_cfg.seed = 5;
  data::CamGenerator gen(gen_cfg);
  codec::CamCodec codec;
  const pipeline::InMemoryDataset dataset = pipeline::InMemoryDataset::make_cam(
      gen, kSamples, pipeline::StorageFormat::kEncoded, &codec);

  obs::MetricsRegistry registry;
  serve::ServiceConfig service_cfg;
  service_cfg.worker_threads = 2;
  service_cfg.metrics = &registry;
  service_cfg.cache.capacity_bytes = 0;  // every batch is decoded afresh
  serve::DataService service(dataset, codec, service_cfg);

  serve::TenantSpec spec;
  spec.name = "alloc";
  spec.epochs = 32;  // 128 batches: the stream outlasts the measured window
  spec.pipeline.batch_size = kBatch;
  spec.pipeline.seed = 3;
  spec.pipeline.prefetch = true;
  spec.pipeline.ops.push_back(std::make_shared<pipeline::RandomFlipX>());

  WireServerConfig server_cfg;
  server_cfg.socket_path =
      fmt("/tmp/sciprep_wire_alloc_{}.sock", static_cast<long>(::getpid()));
  WireServer server(service, {spec}, server_cfg);
  server.start();

  WireClientConfig client_cfg;
  client_cfg.socket_path = server_cfg.socket_path;
  client_cfg.tenant = spec.name;
  // The stream digest adds map nodes per batch; leave it out so the count
  // below sees the wire path alone.
  client_cfg.record_digest = false;
  WireClient client(client_cfg);
  pipeline::Batch batch;
  for (int i = 0; i < kWarmup; ++i) ASSERT_TRUE(client.next(batch));
  ASSERT_EQ(batch.samples.size(), static_cast<std::size_t>(kBatch));

  // One sample's value bytes, and one BATCH frame: the frame carries both
  // samples' values and labels plus its envelope, so it is larger still.
  const std::size_t sample_bytes =
      batch.samples[0].values.size() * sizeof(Half);
  const std::size_t frame_bytes = kBatch * sample_bytes + kHeaderSize;
  g_any_floor.store(frame_bytes);
  g_here_floor.store(sample_bytes);
  t_watched = true;
  g_armed.store(true);
  for (int i = 0; i < kMeasured; ++i) ASSERT_TRUE(client.next(batch));
  g_armed.store(false);
  t_watched = false;

  EXPECT_EQ(g_any_big.load(), 0u)
      << "allocations of >= one frame (" << frame_bytes
      << " bytes) on any thread across " << kMeasured << " batches";
  EXPECT_EQ(g_here_big.load(), 0u)
      << "allocations of >= one sample's values (" << sample_bytes
      << " bytes) on the calling thread across " << kMeasured << " batches";
  // Each next() sends the pipelined NEXT from the client's reused send
  // buffer: steady state allocates less than once per call on this thread.
  EXPECT_LT(g_here_all.load(), static_cast<std::uint64_t>(kMeasured))
      << "allocations of any size on the calling thread across " << kMeasured
      << " batches";
  EXPECT_EQ(client.stats().delivered,
            static_cast<std::uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(client.stats().reconnects, 0u);
  (void)client.detach();
  server.stop();
}

}  // namespace
}  // namespace sciprep::wire
