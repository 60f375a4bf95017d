#include "ntp/server.h"

namespace v6::ntp {

NtpServer::NtpServer(sim::VantagePoint vantage, ObservationSink sink)
    : vantage_(vantage), sink_(std::move(sink)) {}

std::optional<std::vector<std::uint8_t>> NtpServer::handle(
    const net::Ipv6Address& src, const std::vector<std::uint8_t>& payload,
    util::SimTime t) {
  const auto request = proto::NtpPacket::decode(payload);
  if (!request || request->mode != proto::NtpMode::kClient) {
    return std::nullopt;
  }
  record(src, t);
  // Stratum 2, reference id spells the vantage ("GPS " style ids are for
  // stratum 1; stratum 2 uses the upstream's address — any opaque value).
  const std::uint32_t refid = 0x56500000u | vantage_.id;  // "VP.."
  return proto::make_server_response(*request, t, /*stratum=*/2, refid)
      .encode();
}

void NtpServer::record(const net::Ipv6Address& client, util::SimTime t) {
  ++served_;
  if (sink_) sink_({client, t, vantage_.id});
}

}  // namespace v6::ntp
