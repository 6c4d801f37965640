#include "serve/protocol.h"

#include <utility>

#include "store/kle_io.h"

namespace sckl::serve {

namespace {

/// Alternative I of the type table must carry MessageType I + 1.
template <std::size_t... I>
constexpr bool table_in_type_order(std::index_sequence<I...>) {
  return ((std::variant_alternative_t<I, AnyRequest>::kType ==
           static_cast<MessageType>(I + 1)) &&
          ...);
}
constexpr std::size_t kNumTypes = std::variant_size_v<AnyRequest>;
static_assert(table_in_type_order(std::make_index_sequence<kNumTypes>{}));

template <typename Message>
AnyRequest decode_as(wire::ByteReader& r) {
  return decode<Message>(r);
}

template <std::size_t... I>
AnyRequest decode_alternative(std::size_t index, wire::ByteReader& r,
                              std::index_sequence<I...>) {
  using Decoder = AnyRequest (*)(wire::ByteReader&);
  static constexpr Decoder decoders[] = {
      &decode_as<std::variant_alternative_t<I, AnyRequest>>...};
  return decoders[index](r);
}

}  // namespace

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "hello";
    case MessageType::kSolveKle: return "solve_kle";
    case MessageType::kSampleBlock: return "sample_block";
    case MessageType::kRunSsta: return "run_ssta";
    case MessageType::kStats: return "stats";
    case MessageType::kShutdown: return "shutdown";
    case MessageType::kClaimLeases: return "claim_leases";
    case MessageType::kPublishPartial: return "publish_partial";
    case MessageType::kHeartbeat: return "heartbeat";
    case MessageType::kRunStatus: return "run_status";
  }
  return "unknown";
}

bool known_message_type(std::uint32_t type) {
  return type >= 1 && type <= kNumTypes;
}

AnyRequest decode_request(MessageType type, wire::ByteReader& r) {
  return decode_alternative(static_cast<std::size_t>(type) - 1, r,
                            std::make_index_sequence<kNumTypes>{});
}

void expect_end(const wire::ByteReader& r) {
  if (r.remaining() != 0)
    throw Error("serve: " + std::to_string(r.remaining()) +
                    " trailing bytes after the payload",
                ErrorCode::kProtocol);
}

// --- writer ----------------------------------------------------------------

namespace detail {

void Writer::put(bool v) { wire::put_u8(out_, v ? 1 : 0); }
void Writer::put(RunState v) {
  wire::put_u8(out_, static_cast<std::uint8_t>(v));
}
void Writer::put(std::uint32_t v) { wire::put_u32(out_, v); }
void Writer::put(std::uint64_t v) { wire::put_u64(out_, v); }
void Writer::put(double v) { wire::put_f64(out_, v); }
void Writer::put(const std::string& v) { wire::put_string(out_, v); }
void Writer::put(const std::vector<std::uint8_t>& v) {
  wire::put_blob(out_, v);
}
void Writer::put(const store::KleArtifactConfig& v) {
  store::append_artifact_config(out_, v);
}
void Writer::put(const geometry::Point2& v) { (*this)(v.x, v.y); }
void Writer::put(const field::SampleRange& v) {
  (*this)(v.first, static_cast<std::uint64_t>(v.count));
}
void Writer::put(const StreamKey& v) { (*this)(v.seed, v.parameter_id); }

void Writer::row_major(std::uint64_t /*rows*/, std::uint64_t /*cols*/,
                       const std::vector<double>& values) {
  out_.reserve(out_.size() + values.size() * 8);
  for (double v : values) wire::put_f64(out_, v);
}

// --- reader ----------------------------------------------------------------

void Reader::get(bool& v) { v = r_.u8() != 0; }
void Reader::get(RunState& v) {
  const std::uint8_t raw = r_.u8();
  if (raw > static_cast<std::uint8_t>(RunState::kComplete))
    throw Error("serve: invalid run state " + std::to_string(raw),
                ErrorCode::kProtocol);
  v = static_cast<RunState>(raw);
}
void Reader::get(std::uint32_t& v) { v = r_.u32(); }
void Reader::get(std::uint64_t& v) { v = r_.u64(); }
void Reader::get(double& v) { v = r_.f64(); }
void Reader::get(std::string& v) { v = r_.string(); }
void Reader::get(std::vector<std::uint8_t>& v) { v = r_.blob(); }
void Reader::get(store::KleArtifactConfig& v) {
  v = store::read_artifact_config(r_);
}
void Reader::get(geometry::Point2& v) { (*this)(v.x, v.y); }
void Reader::get(field::SampleRange& v) {
  std::uint64_t count = 0;
  (*this)(v.first, count);
  v.count = static_cast<std::size_t>(count);
}
void Reader::get(StreamKey& v) { (*this)(v.seed, v.parameter_id); }

void Reader::row_major(std::uint64_t rows, std::uint64_t cols,
                       std::vector<double>& values) {
  // After cols passes, cols * 8 <= remaining(), so the second check cannot
  // overflow either.
  r_.need_count(cols, 8, "sample columns");
  if (cols != 0)
    r_.need_count(rows, static_cast<std::size_t>(cols) * 8, "sample values");
  values.resize(static_cast<std::size_t>(cols != 0 ? rows * cols : 0));
  for (double& v : values) v = r_.f64();
}

}  // namespace detail

// --- status word -----------------------------------------------------------

std::vector<std::uint8_t> make_error_reply(ErrorCode code,
                                           const std::string& message) {
  std::vector<std::uint8_t> out;
  // kGeneric is 0, which would collide with the success status word; shift
  // a genuinely-generic failure onto an out-of-enum value the client maps
  // back to kGeneric in check_reply_status().
  const auto status = static_cast<std::uint32_t>(code);
  wire::put_u32(out, status != 0 ? status : 1000);
  wire::put_string(out, message);
  return out;
}

void check_reply_status(wire::ByteReader& r) {
  const std::uint32_t status = r.u32();
  if (status == 0) return;
  const std::string message = r.string();
  // Statuses outside our enum (the shifted-generic sentinel, or codes from
  // a newer server) map back to kGeneric.
  ErrorCode code = ErrorCode::kGeneric;
  if (status <= static_cast<std::uint32_t>(ErrorCode::kDeadlineExceeded))
    code = static_cast<ErrorCode>(status);
  throw Error("serve: remote error: " + message, code);
}

}  // namespace sckl::serve
