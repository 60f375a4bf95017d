// Microbenchmarks (google-benchmark) for the pipeline's hot kernels:
// address parsing/formatting, IID entropy and classification, EUI-64
// codec, checksums, NTP packet encode/decode, Feistel permutation, corpus
// insert/lookup, device addressing and resolution, and the two collection
// paths (wire-fidelity vs fast) — the ablation behind the
// CollectorConfig::wire_fidelity design choice in DESIGN.md.
#include <benchmark/benchmark.h>

#include "hitlist/corpus.h"
#include "hitlist/passive_collector.h"
#include "net/classify.h"
#include "net/entropy.h"
#include "net/eui64.h"
#include "netsim/pool_dns.h"
#include "proto/checksum.h"
#include "proto/ntp_packet.h"
#include "sim/feistel.h"
#include "sim/world.h"
#include "util/rng.h"

namespace {

using namespace v6;

std::vector<net::Ipv6Address> random_addresses(std::size_t n) {
  util::Rng rng(42);
  std::vector<net::Ipv6Address> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(net::Ipv6Address::from_u64(rng.next(), rng.next()));
  }
  return out;
}

void BM_Ipv6Format(benchmark::State& state) {
  const auto addresses = random_addresses(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(addresses[i++ & 1023].to_string());
  }
}
BENCHMARK(BM_Ipv6Format);

void BM_Ipv6Parse(benchmark::State& state) {
  const auto addresses = random_addresses(1024);
  std::vector<std::string> strings;
  for (const auto& a : addresses) strings.push_back(a.to_string());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Ipv6Address::parse(strings[i++ & 1023]));
  }
}
BENCHMARK(BM_Ipv6Parse);

void BM_IidEntropy(benchmark::State& state) {
  util::Rng rng(7);
  std::uint64_t iid = rng.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::iid_entropy(iid));
    iid = util::mix64(iid);
  }
}
BENCHMARK(BM_IidEntropy);

void BM_ClassifyIid(benchmark::State& state) {
  util::Rng rng(8);
  std::uint64_t iid = rng.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::classify_iid(iid, false));
    iid = util::mix64(iid);
  }
}
BENCHMARK(BM_ClassifyIid);

void BM_Eui64RoundTrip(benchmark::State& state) {
  std::uint64_t raw = 0x0c47c9123456ULL;
  for (auto _ : state) {
    const auto mac = net::MacAddress::from_u64(raw & 0xffffffffffffULL);
    const auto iid = net::eui64_iid_from_mac(mac);
    benchmark::DoNotOptimize(net::mac_from_eui64(iid));
    raw = util::mix64(raw);
  }
}
BENCHMARK(BM_Eui64RoundTrip);

void BM_InternetChecksum1k(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024);
  util::Rng rng(9);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::internet_checksum(data));
  }
}
BENCHMARK(BM_InternetChecksum1k);

void BM_NtpPacketEncodeDecode(benchmark::State& state) {
  const auto packet = proto::make_client_request(1000, 0xfeed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::NtpPacket::decode(packet.encode()));
  }
}
BENCHMARK(BM_NtpPacketEncodeDecode);

void BM_FeistelApplyInvert(benchmark::State& state) {
  const sim::FeistelPermutation perm(1 << 20, 0x5eed);
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.invert(perm.apply(x)));
    x = (x + 1) & ((1 << 20) - 1);
  }
}
BENCHMARK(BM_FeistelApplyInvert);

void BM_CorpusInsert(benchmark::State& state) {
  hitlist::Corpus corpus(1 << 20);
  util::Rng rng(11);
  for (auto _ : state) {
    corpus.add(net::Ipv6Address::from_u64(rng.next(), rng.next()),
               static_cast<util::SimTime>(rng.bounded(1 << 24)),
               static_cast<std::uint8_t>(rng.bounded(27)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CorpusInsert);

void BM_CorpusLookupHit(benchmark::State& state) {
  hitlist::Corpus corpus(1 << 16);
  const auto addresses = random_addresses(1 << 14);
  for (const auto& a : addresses) corpus.add(a, 1, 0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(corpus.find(addresses[i++ & ((1 << 14) - 1)]));
  }
}
BENCHMARK(BM_CorpusLookupHit);

struct WorldFixture {
  WorldFixture() {
    sim::WorldConfig config;
    config.seed = 3;
    config.total_sites = 1000;
    world = std::make_unique<sim::World>(sim::World::generate(config));
  }
  std::unique_ptr<sim::World> world;
};

WorldFixture& world_fixture() {
  static WorldFixture fixture;
  return fixture;
}

void BM_WorldDeviceAddress(benchmark::State& state) {
  const auto& world = *world_fixture().world;
  util::Rng rng(12);
  for (auto _ : state) {
    const auto d =
        static_cast<sim::DeviceId>(rng.bounded(world.devices().size()));
    benchmark::DoNotOptimize(
        world.device_address(d, static_cast<util::SimTime>(
                                    rng.bounded(200 * util::kDay))));
  }
}
BENCHMARK(BM_WorldDeviceAddress);

void BM_WorldResolve(benchmark::State& state) {
  const auto& world = *world_fixture().world;
  util::Rng rng(13);
  std::vector<net::Ipv6Address> targets;
  for (int i = 0; i < 1024; ++i) {
    const auto d =
        static_cast<sim::DeviceId>(rng.bounded(world.devices().size()));
    targets.push_back(world.device_address(d, 1000));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.resolve(targets[i++ & 1023], 1000));
  }
}
BENCHMARK(BM_WorldResolve);

// Ablation: fast vs wire-fidelity collection throughput (polls/second).
void collection_path(benchmark::State& state, bool wire) {
  const auto& world = *world_fixture().world;
  for (auto _ : state) {
    netsim::DataPlane plane(world, {0.01, 1});
    netsim::PoolDns dns(world);
    hitlist::PassiveCollector collector(world, plane, dns,
                                        {.wire_fidelity = wire});
    hitlist::Corpus corpus(1 << 14);
    collector.run(corpus, 0, 2 * util::kDay);
    state.SetItemsProcessed(
        state.items_processed() +
        static_cast<std::int64_t>(collector.polls_attempted()));
  }
}

void BM_CollectFastPath(benchmark::State& state) {
  collection_path(state, false);
}
BENCHMARK(BM_CollectFastPath)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_CollectWireFidelity(benchmark::State& state) {
  collection_path(state, true);
}
BENCHMARK(BM_CollectWireFidelity)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
