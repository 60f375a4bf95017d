#include "hitlist/passive_collector.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <utility>

#include "hitlist/tiered_corpus.h"
#include "proto/ntp_packet.h"
#include "proto/udp.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace v6::hitlist {

namespace {

// The i-th re-send goes out backoff * (2^i - 1) seconds after the original
// packet (RFC 5905-flavoured exponential backoff). The offset saturates at
// kNoResend, which lies past every collection window, so neither the shift
// nor the product can overflow however large retry_limit is.
constexpr util::SimDuration kNoResend =
    std::numeric_limits<util::SimDuration>::max();

util::SimDuration backoff_offset(std::uint32_t attempt,
                                 util::SimDuration backoff) noexcept {
  if (attempt == 0 || backoff <= 0) return 0;
  if (attempt >= 63) return kNoResend;
  const util::SimDuration steps = (util::SimDuration{1} << attempt) - 1;
  return backoff > kNoResend / steps ? kNoResend : backoff * steps;
}

// First boundary strictly after `lo` on the grid start + k * interval.
util::SimTime next_on_grid(util::SimTime lo, util::SimTime start,
                           util::SimDuration interval) noexcept {
  return start + ((lo - start) / interval + 1) * interval;
}

// Out of core, a spill check runs at least this often: the spill grid
// guarantees interior merge barriers even when neither checkpointing nor
// sampling provides them.
constexpr util::SimDuration kSpillBarrierInterval = util::kDay;

}  // namespace

void count_collection(obs::Registry& registry, std::uint64_t polls,
                      std::uint64_t answered,
                      const std::vector<VantageHealthStats>& vantage_health) {
  registry
      .counter("v6_collector_polls_total",
               "NTP poll packets attempted by pool clients")
      .inc(polls);
  registry
      .counter("v6_collector_answered_total",
               "Poll attempts whose response passed client-side validation")
      .inc(answered);
  for (std::size_t v = 0; v < vantage_health.size(); ++v) {
    const obs::Labels labels{{"vantage", std::to_string(v)}};
    registry
        .counter(obs::kVantagePollsFamily,
                 "Recorded poll packets steered to this vantage", labels)
        .inc(vantage_health[v].polls);
    registry
        .counter(obs::kVantageAnsweredFamily,
                 "Poll attempts this vantage answered past client validation",
                 labels)
        .inc(vantage_health[v].answered);
    registry
        .counter(obs::kVantageFaultLostFamily,
                 "Poll attempts the fault plan swallowed at this vantage",
                 labels)
        .inc(vantage_health[v].lost_to_fault);
  }
}

void count_records(obs::Registry& registry, std::uint64_t admitted,
                   std::uint64_t dedup_hits) {
  registry
      .counter("v6_collector_records_total",
               "Unique client addresses admitted to the corpus")
      .inc(admitted);
  registry
      .counter("v6_collector_dedup_hits_total",
               "Observations folded into an existing corpus record")
      .inc(dedup_hits);
}

PassiveCollector::PassiveCollector(const sim::World& world,
                                   netsim::DataPlane& plane,
                                   const netsim::PoolDns& dns,
                                   const CollectorConfig& config)
    : world_(&world), plane_(&plane), dns_(&dns), config_(config) {
  const std::size_t vantage_count = world.vantages().size();
  metric_vantage_records_.resize(vantage_count);
  if (config_.metrics == nullptr) return;
  obs::Registry& reg = *config_.metrics;
  // Zero deltas register the shared families up front.
  count_collection(reg, 0, 0, std::vector<VantageHealthStats>(vantage_count));
  count_records(reg, 0, 0);
  metric_checkpoints_ = reg.counter("v6_collector_checkpoints_total",
                                    "Checkpoint snapshots handed to the sink");
  for (std::size_t v = 0; v < vantage_count; ++v) {
    metric_vantage_records_[v] = reg.counter(
        obs::kVantageRecordsFamily,
        "Observations recorded into the corpus via this vantage",
        {{"vantage", std::to_string(v)}});
  }
}

void PassiveCollector::process_event(ShardState& shard, DeviceState& ds,
                                     util::SimTime t,
                                     util::SimTime window_end) const {
  // Replaying a checkpointed prefix runs the same draws without counting.
  const bool record = shard.recording;
  // Only captured events need the client's address. Health-aware steering
  // may redirect the pick away from a monitored-down vantage.
  const net::Ipv6Address client = world_->device_address(ds.id, t);
  bool steered = false;
  const sim::VantagePoint& vantage =
      *dns_->resolve(client, ds.rng, t, &steered);
  const netsim::FaultSchedule* faults = plane_->faults();
  VantageHealthStats& vh = shard.vantage[vantage.id];
  if (record && steered) ++vh.steered_polls;
  for (std::uint8_t k = 0; k < ds.burst; ++k) {
    const util::SimTime tk = t + 2 * k;
    if (tk >= window_end) break;  // the collection window closes mid-burst
    for (std::uint32_t attempt = 0; attempt <= config_.retry_limit;
         ++attempt) {
      const util::SimDuration offset =
          backoff_offset(attempt, config_.retry_backoff);
      if (offset >= window_end - tk) break;  // past the window
      const util::SimTime tj = tk + offset;
      if (record) {
        ++shard.tally.polls;
        ++vh.polls;
        if (attempt > 0) ++vh.retries;
      }
      // Both paths spend the attempt's two draws the same way, so the
      // device streams stay in lockstep (see the header comment). r2 >> 50
      // == Rng::bounded(16384) on the same draw (a power-of-two Lemire
      // reduction never rejects).
      const auto nonce = static_cast<std::uint32_t>(ds.rng.next());
      const auto src_port =
          static_cast<std::uint16_t>(49152 + (ds.rng.next() >> 50));
      // Pure-function fault verdict: both paths (and a resumed run)
      // agree without consulting any RNG.
      const bool faulted =
          faults != nullptr && !faults->delivers(vantage.id, client, tj);
      if (record && faulted) ++vh.lost_to_fault;
      ntp::NtpServer& server = *shard.servers[vantage.id];
      bool answered = false;
      if (config_.wire_fidelity) {
        const proto::NtpPacket request = proto::make_client_request(tj, nonce);
        const auto response_bytes = plane_->send_udp(
            client, src_port, vantage.address, proto::kNtpPort, nonce,
            request.encode(), tj,
            [&server](const net::Ipv6Address& src, std::uint16_t,
                      const std::vector<std::uint8_t>& payload,
                      util::SimTime at) {
              return server.handle(src, payload, at);
            });
        if (response_bytes) {
          // SNTP client-side validation: server mode, origin echoes our
          // transmit timestamp.
          const auto response = proto::NtpPacket::decode(*response_bytes);
          answered = response && response->mode == proto::NtpMode::kServer &&
                     response->origin_time == request.transmit_time;
        }
      } else {
        // Fast path: the wire path's steering, loss verdict and fault
        // model, with no serialization. A lost or faulted request leaves
        // no observation; a lost answer costs only the client's answer.
        const netsim::DataPlane::UdpFate fate = plane_->udp_fate(
            client, src_port, vantage.address, proto::kNtpPort, nonce, tj);
        const bool served = !fate.request_lost && !faulted;
        if (served) server.record(client, tj);
        answered = served && !fate.answer_lost;
      }
      if (answered) {
        if (record) {
          ++shard.tally.answered;
          ++vh.answered;
        }
        break;  // the client heard back; no more re-sends of this packet
      }
    }
  }
}

bool PassiveCollector::silenced(sim::DeviceId id, util::SimTime t) const {
  return world_->in_outage(world_->attachment(id, t).as_index, t);
}

void PassiveCollector::process_chunk(ShardState& shard,
                                     util::SimTime window_end,
                                     util::SimTime chunk_end) const {
  std::vector<DeviceState>& devices = shard.devices;
  while (shard.arrived < devices.size() &&
         devices[shard.arrived].schedule.poll_time(0) < chunk_end) {
    ++shard.arrived;
  }
  // Visits the active devices back to front, sliding each one with polls
  // left up against the pending ones, so the active devices stay
  // contiguous and in first-poll order and the retired ones drop out.
  std::size_t keep = shard.arrived;
  for (std::size_t i = shard.arrived; i-- > shard.retired;) {
    DeviceState& ds = devices[i];
    process_device(shard, ds, window_end, chunk_end);
    if (ds.cursor.polls < ds.schedule.count() && --keep != i) {
      devices[keep] = ds;
    }
  }
  shard.retired = keep;
}

void PassiveCollector::process_device(ShardState& shard, DeviceState& ds,
                                      util::SimTime window_end,
                                      util::SimTime chunk_end) const {
  const bool outages = world_->config().outage_count > 0;
  const ntp::ClientSchedule& schedule = ds.schedule;
  const std::uint64_t first = ds.cursor.polls;
  const std::uint64_t last = schedule.polls_before(chunk_end);
  if (last == first) return;
  ds.cursor.polls = last;
  // Packets of a sync event at t before the window closes mid-burst
  // (they go out ~2 s apart): what an uncaptured event counts.
  const auto packets = [&](util::SimTime t) {
    return static_cast<std::uint64_t>(
        std::min<util::SimTime>(ds.burst, (window_end - t + 1) / 2));
  };
  if (shard.recording) {
    // Every poll of the chunk, in bulk, as a whole uncaptured burst...
    shard.tally.polls += ds.burst * (last - first);
    // ...less what fires short: bursts cut by the window end, and polls
    // an AS-wide outage silences (the intro's outage-detection use
    // case: the corpus time series shows the hole). Only polls in those
    // zones are visited; a mobile device's outage is checked per poll,
    // since it roams between ASes.
    struct Zone {
      std::uint64_t begin, end;  // poll indices
    };
    // The window's end, the home and relocation sites' ASes and every
    // carrier's (see World::for_each_attachable_as).
    std::array<Zone, 3 + std::size(sim::MobilityProfile{}.carrier_as)> zones;
    std::size_t zone_count = 0;
    const auto add_zone = [&](util::SimTime a, util::SimTime b) {
      if (a >= chunk_end) return;
      const Zone zone{std::max(first, schedule.polls_before(a)),
                      std::min(last, schedule.polls_before(b))};
      if (zone.begin >= zone.end) return;
      // Kept sorted by begin (an insertion sort: there are few zones).
      std::size_t i = zone_count++;
      for (; i > 0 && zones[i - 1].begin > zone.begin; --i) {
        zones[i] = zones[i - 1];
      }
      zones[i] = zone;
    };
    add_zone(window_end - 2 * ds.burst, window_end);
    if (outages) {
      world_->for_each_attachable_as(ds.id, [&](std::uint32_t as_index) {
        const sim::AsInfo& as = world_->ases()[as_index];
        if (as.outage_duration > 0) {
          add_zone(as.outage_start, as.outage_start + as.outage_duration);
        }
      });
    }
    std::uint64_t done = first;  // zones may overlap; visit a poll once
    for (std::size_t z = 0; z < zone_count; ++z) {
      for (std::uint64_t j = std::max(done, zones[z].begin);
           j < zones[z].end; ++j) {
        const util::SimTime t = schedule.poll_time(j);
        const bool dark = outages && silenced(ds.id, t);
        shard.tally.polls -= ds.burst - (dark ? 0 : packets(t));
      }
      done = std::max(done, zones[z].end);
    }
  }
  // The captured polls: the only ones that draw, resolve and record.
  // Each replaces its bulk count with what process_event() counts; a
  // silenced one was already taken out and draws nothing.
  for (; ds.captured < last;
       ds.captured = dns_->next_capture(ds.capture_key, ds.captured + 1)) {
    const util::SimTime t = schedule.poll_time(ds.captured);
    if (outages && silenced(ds.id, t)) continue;
    if (shard.recording) shard.tally.polls -= packets(t);
    process_event(shard, ds, t, window_end);
  }
}

void PassiveCollector::collect(Corpus* memory, TieredCorpus* runs,
                               const CheckpointState& from,
                               const ObservationHook& hook,
                               const CheckpointSink& sink) {
  const auto all_devices = world_->devices();
  const std::size_t first = std::min(config_.device_begin, all_devices.size());
  const std::size_t last =
      std::clamp(config_.device_end, first, all_devices.size());
  const auto devices = all_devices.subspan(first, last - first);
  const auto vantages = world_->vantages();
  const auto shards = static_cast<unsigned>(std::min<std::size_t>(
      config_.threads.resolved(), std::max<std::size_t>(devices.size(), 1)));

  std::mutex hook_mu;
  std::mutex* mu = (hook && shards > 1) ? &hook_mu : nullptr;

  std::vector<ShardState> states(shards);
  for (unsigned s = 0; s < shards; ++s) {
    ShardState& shard = states[s];
    shard.vantage.resize(vantages.size());
    shard.vantage_obs.resize(vantages.size());
    // One server object per vantage, all sinking into this shard's
    // corpus. The sink consults the shard's recording flag so replayed
    // (pre-checkpoint) traffic leaves no trace.
    shard.servers.reserve(vantages.size());
    for (const auto& vantage : vantages) {
      auto observation_sink = [this, shardp = &shard, &hook, mu,
                               address = vantage.address](
                                  const ntp::Observation& obs) {
        if (!shardp->recording) return;
        shardp->corpus.add(obs.client, obs.time, obs.vantage);
        if (obs.vantage < shardp->vantage_obs.size()) {
          ++shardp->vantage_obs[obs.vantage];
        }
        if (hook) {
          if (mu == nullptr) {
            hook(obs, address);
          } else {
            std::lock_guard<std::mutex> lock(*mu);
            hook(obs, address);
          }
        }
      };
      shard.servers.push_back(
          std::make_unique<ntp::NtpServer>(vantage, observation_sink));
    }
    // Contiguous device range (the same partition run_sharded uses), so
    // the shard layout is a pure function of (device count, shard count).
    const util::ShardRange range = util::shard_range(devices.size(), s, shards);
    for (std::size_t d = range.begin; d < range.end; ++d) {
      const sim::Device& dev = devices[d];
      if (!dev.ntp.uses_pool) continue;
      const ntp::ClientSchedule schedule(dev, from.window_start,
                                         from.window_end);
      if (schedule.count() == 0) continue;
      // Order-independent per-device stream: the collection result does
      // not depend on enumeration order (the property that makes sharding
      // devices across threads or machines — and across checkpoint
      // epochs — bit-exact).
      const std::uint64_t stream =
          util::mix64(config_.seed ^ 0xc0111ec7 ^ util::mix64(dev.seed));
      const std::uint64_t capture_key = util::mix64(stream ^ 0xca97);
      shard.devices.push_back(DeviceState{
          dev.id,
          config_.ignore_bursts ? std::uint8_t{1}
                                : std::max<std::uint8_t>(dev.ntp.burst, 1),
          util::Rng(stream),
          schedule,
          {},
          capture_key,
          dns_->next_capture(capture_key, 0)});
    }
    // Ordered by first poll (then device id): the order the chunks admit
    // them in.
    std::sort(shard.devices.begin(), shard.devices.end(),
              [](const DeviceState& a, const DeviceState& b) {
                return std::pair(a.schedule.poll_time(0), a.id) <
                       std::pair(b.schedule.poll_time(0), b.id);
              });
  }

  // One pool for the whole window: every merge barrier reuses it instead
  // of spawning and joining threads per chunk.
  std::unique_ptr<util::ThreadPool> pool;
  if (shards > 1) pool = std::make_unique<util::ThreadPool>(shards);
  const auto run_chunk = [&](util::SimTime chunk_end) {
    util::run_sharded(pool.get(), states.size(), shards,
                      [&](unsigned, std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i) {
                          process_chunk(states[i], from.window_end, chunk_end);
                        }
                      });
  };

  // Resume: silently replay the already-checkpointed prefix, consuming
  // RNG / DNS / data-plane state exactly as the original run did.
  if (from.resume_from > from.window_start) {
    for (ShardState& shard : states) shard.recording = false;
    run_chunk(from.resume_from);
    for (ShardState& shard : states) shard.recording = true;
  }

  // In memory, the shard tables drain into one running union at every
  // merge barrier, so a barrier costs what was recorded since the last
  // one. It starts as a copy of the caller's corpus, which stays untouched
  // until the chunk loop finishes (the sink-failure contract). Out of
  // core it stays empty and the tables wait in the shards until they spill.
  Corpus running = memory != nullptr ? memory->copy() : Corpus(1);
  // The live union: the canonical union of the running union and the
  // shard tables, i.e. the part of the corpus so far that is in no spilled
  // run. Each part is sorted in place, one pool task per part, at most
  // once per chunk; one k-way merge then folds the sorted parts.
  std::vector<Corpus*> parts{&running};
  for (ShardState& shard : states) parts.push_back(&shard.corpus);
  bool parts_sorted = false;
  const auto live = [&] {
    if (!parts_sorted) {
      util::run_sharded(pool.get(), parts.size(),
                        static_cast<unsigned>(parts.size()),
                        [&](unsigned, std::size_t b, std::size_t e) {
                          for (std::size_t i = b; i < e; ++i) {
                            parts[i]->canonicalize();
                          }
                        });
      parts_sorted = true;
    }
    std::vector<BlockStream> streams;
    std::size_t total = 0;
    for (const Corpus* part : parts) {
      streams.push_back(span_stream(part->records()));
      total += part->size();
    }
    RecordArray out;
    out.reserve(total);
    merge_record_blocks(streams, [&out](const AddressRecord& rec) {
      out.push_back(rec);
      return true;
    });
    return out;
  };
  // The corpus so far as one canonical Corpus (out of core, one k-way
  // merge over the runs and the live union, sharded on the pool), so its
  // layout is a pure function of its content at any shard count.
  const auto snapshot = [&] {
    RecordArray rest = live();
    return runs != nullptr ? runs->collapse(rest, pool.get())
                           : Corpus::from_canonical(std::move(rest));
  };
  // Records in the corpus so far. Out of core that is a counting merge
  // over the runs, which the TieredCorpus caches while nothing is live.
  const auto record_count = [&]() -> std::uint64_t {
    if (runs == nullptr) return running.size();
    const RecordArray rest = live();
    return rest.empty() ? runs->merged_size() : runs->merged_size_with(rest);
  };

  // The cursor of the corpus so far: the checkpoint's counters carried in
  // plus every tally drained since. Each barrier moves the counters by
  // the drained deltas and zeroes the shard tallies.
  CheckpointState totals = from;
  if (totals.vantage_health.size() < vantages.size()) {
    totals.vantage_health.resize(vantages.size());
  }
  std::uint64_t observations = 0;  // recorded by this call, pre-dedup
  const auto drain_tallies = [&] {
    ShardTally tally;
    std::vector<VantageHealthStats> health(vantages.size());
    for (ShardState& shard : states) {
      tally.polls += shard.tally.polls;
      tally.answered += shard.tally.answered;
      add_vantage_health(health, shard.vantage);
      for (std::size_t v = 0; v < shard.vantage_obs.size(); ++v) {
        observations += shard.vantage_obs[v];
        metric_vantage_records_[v].inc(shard.vantage_obs[v]);
      }
      shard.tally = {};
      shard.vantage.assign(vantages.size(), {});
      shard.vantage_obs.assign(vantages.size(), 0);
    }
    totals.polls_attempted += tally.polls;
    totals.polls_answered += tally.answered;
    add_vantage_health(totals.vantage_health, health);
    if (config_.metrics != nullptr) {
      count_collection(*config_.metrics, tally.polls, tally.answered, health);
    }
  };
  // The records and dedup counters need the union size, so they move only
  // at sampler boundaries and at the end, each time by the distance from
  // the last move.
  const std::uint64_t records_before = record_count();
  std::uint64_t flushed_records = 0;
  std::uint64_t flushed_dedup = 0;
  const auto flush_records = [&] {
    if (config_.metrics == nullptr) return;
    const std::uint64_t admitted = record_count() - records_before;
    // Every observation either admits a record or folds into one, so the
    // dedup count is monotone too.
    const std::uint64_t dedup = observations - std::min(observations, admitted);
    count_records(*config_.metrics, admitted - flushed_records,
                  dedup - flushed_dedup);
    flushed_records = admitted;
    flushed_dedup = dedup;
  };

  // The sim-time grids that end a chunk (0 = off). A hooked pass runs
  // whole-window: a hook observes sightings in chunk order and may feed an
  // order-sensitive consumer (the backscanner's shared RNG), so neither the
  // epoch grid nor the sampler's may reshape it; sampling is the caller's.
  const util::SimDuration checkpoint_grid =
      sink ? config_.checkpoint_interval : 0;
  const util::SimDuration epoch_grid =
      config_.epoch_sink && !hook ? config_.epoch_interval : 0;
  const util::SimDuration spill_grid =
      runs != nullptr ? kSpillBarrierInterval : 0;
  const bool sampling =
      config_.sampler != nullptr && config_.metrics != nullptr && !hook;
  // With several grids active a boundary may lie on only some of them.
  const auto on_grid = [&](util::SimTime t, util::SimDuration grid) {
    return grid > 0 && t < from.window_end &&
           (t - from.window_start) % grid == 0;
  };
  util::SimTime lo = std::max(from.window_start, from.resume_from);
  while (lo < from.window_end) {
    util::SimTime hi = from.window_end;
    for (const util::SimDuration grid :
         {checkpoint_grid, epoch_grid, spill_grid}) {
      if (grid > 0) {
        hi = std::min(hi, next_on_grid(lo, from.window_start, grid));
      }
    }
    if (sampling) hi = std::min(hi, config_.sampler->next_boundary(lo));
    run_chunk(hi);
    parts_sorted = false;
    // All shards joined at `hi`: a merge barrier, so everything below is
    // exact and independent of the shard count.
    drain_tallies();
    // Out of core the tables stay in the shards until their heap crosses
    // the budget; the window-end tail always spills, so after the loop
    // they are empty. Spilling the union of ALL shards (not one run per
    // shard) keeps each run's content, and with it the merged stream,
    // independent of the shard count.
    std::size_t table_bytes = 0;
    for (const ShardState& shard : states) {
      table_bytes += shard.corpus.memory_bytes();
    }
    if (runs == nullptr || hi >= from.window_end ||
        table_bytes > runs->config().memory_budget_bytes) {
      if (runs == nullptr) {
        for (ShardState& shard : states) running.merge(shard.corpus);
      } else {
        runs->spill(live());
      }
      for (ShardState& shard : states) shard.corpus = Corpus(1 << 12);
    }
    if (on_grid(hi, checkpoint_grid)) {
      totals.resume_from = hi;
      metric_checkpoints_.inc();
      if (runs == nullptr) {
        sink(totals, running);
      } else {
        sink(totals, snapshot());
      }
    }
    if (on_grid(hi, epoch_grid)) config_.epoch_sink(hi, snapshot());
    // The window-end sample is left to the caller's stage sample.
    if (sampling && hi < from.window_end && config_.sampler->on_boundary(hi)) {
      flush_records();
      config_.sampler->sample(hi, config_.sampler_stage);
    }
    lo = hi;
  }

  // Metrics cover what this call itself recorded (the checkpointed `from`
  // baseline was counted when the original run emitted it); the getters
  // describe the corpus so far, baseline included.
  flush_records();
  polls_ = totals.polls_attempted;
  answered_ = totals.polls_answered;
  vantage_health_ = std::move(totals.vantage_health);
  // The chunk grids and the shard count change the order sightings reach
  // the running union, which would leak into save_corpus() bytes through
  // linear-probe slot placement; canonical order makes the layout a pure
  // function of the content, as run files are by construction.
  if (memory != nullptr) {
    *memory = std::move(running);
    memory->canonicalize();
  }
}

void PassiveCollector::run(Corpus& corpus, util::SimTime start,
                           util::SimTime end, const ObservationHook& hook,
                           const CheckpointSink& sink) {
  collect(&corpus, nullptr, CheckpointState::fresh(start, end), hook, sink);
}

void PassiveCollector::run(TieredCorpus& runs, util::SimTime start,
                           util::SimTime end, const ObservationHook& hook,
                           const CheckpointSink& sink) {
  collect(nullptr, &runs, CheckpointState::fresh(start, end), hook, sink);
}

void PassiveCollector::resume(Corpus& corpus, const CheckpointState& from,
                              const ObservationHook& hook,
                              const CheckpointSink& sink) {
  collect(&corpus, nullptr, from, hook, sink);
}

void PassiveCollector::resume(TieredCorpus& runs, const CheckpointState& from,
                              const ObservationHook& hook,
                              const CheckpointSink& sink) {
  collect(nullptr, &runs, from, hook, sink);
}

}  // namespace v6::hitlist
