#include "serve/client.h"

#include <cstring>

#include "common/error.h"

namespace sckl::serve {

Client Client::connect_unix(const std::string& path) {
  return Client(net::connect_unix(path));
}

Client Client::connect_tcp(std::uint16_t port) {
  return Client(net::connect_tcp(port));
}

std::vector<std::uint8_t> Client::roundtrip_raw(
    wire::FrameHeader header, const std::vector<std::uint8_t>& payload) {
  wire::write_frame(fd_.get(), header, payload);
  wire::FrameHeader reply_header;
  std::vector<std::uint8_t> reply;
  if (!wire::read_frame(fd_.get(), max_payload_bytes_, reply_header, reply))
    throw Error("serve client: connection closed before the reply",
                ErrorCode::kIoTransient);
  return reply;
}

std::vector<std::uint8_t> Client::roundtrip(
    MessageType type, const std::vector<std::uint8_t>& payload) {
  wire::FrameHeader header;
  header.type = static_cast<std::uint32_t>(type);
  header.deadline_ms = deadline_ms_;
  header.request_id = next_request_id_++;

  wire::write_frame(fd_.get(), header, payload);

  if (rpc_timeout_ms_ > 0 && !net::wait_readable(fd_.get(), rpc_timeout_ms_))
    throw Error("serve client: no reply within " +
                    std::to_string(rpc_timeout_ms_) +
                    "ms (peer silent or connection half-open)",
                ErrorCode::kDeadlineExceeded);
  wire::FrameHeader reply_header;
  std::vector<std::uint8_t> reply;
  if (!wire::read_frame(fd_.get(), max_payload_bytes_, reply_header, reply))
    throw Error("serve client: connection closed before the reply",
                ErrorCode::kIoTransient);
  if (reply_header.request_id != header.request_id)
    throw Error("serve client: reply correlates to request " +
                    std::to_string(reply_header.request_id) + ", expected " +
                    std::to_string(header.request_id),
                ErrorCode::kProtocol);
  return reply;
}

linalg::Matrix Client::sample_matrix(const SampleBlockRequest& request) {
  const SampleBlockReply reply = sample_block(request);
  linalg::Matrix out(static_cast<std::size_t>(reply.rows),
                     static_cast<std::size_t>(reply.cols));
  std::memcpy(out.data(), reply.values.data(),
              reply.values.size() * sizeof(double));
  return out;
}

}  // namespace sckl::serve
