// Microbenchmarks (google-benchmark): the hot primitives under the MLB's
// routing path and the simulator core — MD5, ring lookups, PDU codecs,
// event-queue operations.
#include <benchmark/benchmark.h>

#include "hash/md5.h"
#include "hash/ring.h"
#include "proto/codec.h"
#include "sim/cpu.h"
#include "sim/engine.h"

namespace {

using namespace scale;

void BM_Md5_U64Key(benchmark::State& state) {
  std::uint64_t key = 0x1234'5678;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::md5_u64(key++));
  }
}
BENCHMARK(BM_Md5_U64Key);

void BM_Md5_1KiB(benchmark::State& state) {
  const std::string data(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Md5::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_Md5_1KiB);

void BM_Fnv1a_U64Key(benchmark::State& state) {
  std::uint64_t key = 0x1234'5678;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::fnv1a_u64(key++));
  }
}
BENCHMARK(BM_Fnv1a_U64Key);

void BM_RingOwnerLookup(benchmark::State& state) {
  hash::ConsistentHashRing ring(5);
  for (hash::RingNodeId n = 1;
       n <= static_cast<hash::RingNodeId>(state.range(0)); ++n)
    ring.add_node(n);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.owner(key++));
  }
}
BENCHMARK(BM_RingOwnerLookup)->Arg(4)->Arg(30)->Arg(128);

void BM_RingPreferenceList(benchmark::State& state) {
  hash::ConsistentHashRing ring(5);
  for (hash::RingNodeId n = 1; n <= 30; ++n) ring.add_node(n);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.preference_list(key++, 2));
  }
}
BENCHMARK(BM_RingPreferenceList);

void BM_RingMembershipChange(benchmark::State& state) {
  hash::ConsistentHashRing ring(5);
  for (hash::RingNodeId n = 1; n <= 30; ++n) ring.add_node(n);
  for (auto _ : state) {
    ring.add_node(999);
    ring.remove_node(999);
  }
}
BENCHMARK(BM_RingMembershipChange);

proto::Pdu attach_pdu() {
  proto::NasAttachRequest nas;
  nas.imsi = 123456789012345ull;
  nas.old_guti = proto::Guti{310, 17, 3, 0xBEEF01};
  nas.tac = 7;
  return proto::make_pdu(proto::InitialUeMessage{9, 8, 7,
                                                 proto::NasMessage{nas}});
}

void BM_EncodePdu(benchmark::State& state) {
  const proto::Pdu pdu = attach_pdu();
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::encode_pdu(pdu));
  }
}
BENCHMARK(BM_EncodePdu);

void BM_DecodePdu(benchmark::State& state) {
  const auto bytes = proto::encode_pdu(attach_pdu());
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::decode_pdu(bytes));
  }
}
BENCHMARK(BM_DecodePdu);

void BM_CodecRoundTripContextRecord(benchmark::State& state) {
  proto::UeContextRecord rec;
  rec.imsi = 1;
  rec.guti = proto::Guti{1, 1, 1, 42};
  const proto::Pdu pdu =
      proto::make_pdu(proto::StateTransfer{rec});
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::decode_pdu(proto::encode_pdu(pdu)));
  }
}
BENCHMARK(BM_CodecRoundTripContextRecord);

void BM_EngineScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 1000; ++i)
      eng.after(Duration::us(i % 97), [] {});
    eng.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_EngineScheduleAndRun);

void BM_CpuModelExecute(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::CpuModel cpu(eng);
    for (int i = 0; i < 1000; ++i) cpu.execute(Duration::us(10), nullptr);
    eng.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_CpuModelExecute);

}  // namespace

BENCHMARK_MAIN();
