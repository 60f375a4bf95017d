// The stratum-2 NTP vantage server.
//
// Each of the 27 vantage points runs one of these on UDP port 123; a
// collection shard keeps one per vantage and hands it to the data plane
// with each wire poll (netsim::DataPlane::send_udp). It implements the server side of RFC 5905's client/server
// mode: validate the request, mirror the client's transmit timestamp into
// the origin field, stamp receive/transmit — and, the entire point of the
// paper, log the client's source address. Observations stream to a sink so
// collection is O(1) memory here.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/ipv6.h"
#include "proto/ntp_packet.h"
#include "sim/world.h"
#include "util/sim_time.h"

namespace v6::ntp {

// One passive sighting of a client address at a vantage point.
struct Observation {
  net::Ipv6Address client;
  util::SimTime time = 0;
  std::uint8_t vantage = 0;
};

using ObservationSink = std::function<void(const Observation&)>;

class NtpServer {
 public:
  // The vantage descriptor is copied: a server outlives any temporary it
  // was configured from.
  NtpServer(sim::VantagePoint vantage, ObservationSink sink);

  // Handles one request payload; returns the response bytes, or nothing
  // for malformed / non-client-mode packets. Also usable directly by the
  // fast collection path (which skips UDP framing but not this logic).
  std::optional<std::vector<std::uint8_t>> handle(
      const net::Ipv6Address& src, const std::vector<std::uint8_t>& payload,
      util::SimTime t);

  // Lets the fast path log a sighting without the packet round trip.
  void record(const net::Ipv6Address& client, util::SimTime t);

  const sim::VantagePoint& vantage() const noexcept { return vantage_; }
  std::uint64_t requests_served() const noexcept { return served_; }

 private:
  sim::VantagePoint vantage_;
  ObservationSink sink_;
  std::uint64_t served_ = 0;
};

}  // namespace v6::ntp
