// Message schemas of the sckl_serve wire protocol (version 3).
//
// Transport: every message is one frame (common/frame.h — "SCKF" magic,
// version, type, deadline, request id, payload, CRC). This header defines
// what goes *inside* the payload for each MessageType, using the same
// little-endian primitives as the on-disk artifact format (common/wire.h)
// and reusing store/kle_io's KleArtifactConfig codec verbatim, so a config
// is encoded identically on disk and on the wire.
//
// Layouts: each request and reply struct below declares its wire fields
// once, in wire order, in its `fields(io)` member. One generic codec
// (detail::Writer / detail::Reader) walks that list to encode and decode,
// so the list IS the layout — there is no second copy to drift. Per field
// type: bool and RunState are a u8, std::uint32_t a u32, std::uint64_t a
// u64, double an f64 bit pattern, std::string a u32 length + bytes, a byte
// vector a u64 length + bytes, any other vector a u64 count + elements, and
// nested structs (KleArtifactConfig, Point2, SampleRange, StreamKey,
// WireLease) their own fields in order.
//
// Request/reply pairing: every request type names its MessageType (kType)
// and its reply type (Reply); a reply frame echoes the request's type and
// request id. Every reply payload starts with a u32 status — 0 for success
// followed by the reply's fields, otherwise the sckl::ErrorCode of the
// failure followed by a diagnostic string. check_reply_status() rethrows
// such an error client-side with the original code, so a remote failure is
// indistinguishable from a local one to reaction code.
//
// Distributed Monte Carlo (v3): a coordinator-side RunSsta with
// distributed=1 registers the run's live lease table; remote workers then
// drive it with ClaimLeases / PublishPartial / Heartbeat / RunStatus (see
// DESIGN.md §12 for the flow). A worker whose config_hash differs from the
// coordinator's gets a kPrecondition error reply — it is computing a
// different workload and its partials must never reach the ledger.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/error.h"
#include "common/frame.h"
#include "common/rng.h"
#include "common/wire.h"
#include "field/field_sampler.h"
#include "geometry/point2.h"
#include "store/key_hash.h"

namespace sckl::serve {

/// Frame type of every protocol message. Requests and replies share the
/// value; direction disambiguates.
enum class MessageType : std::uint32_t {
  kHello = 1,
  kSolveKle = 2,
  kSampleBlock = 3,
  kRunSsta = 4,
  kStats = 5,
  kShutdown = 6,
  kClaimLeases = 7,
  kPublishPartial = 8,
  kHeartbeat = 9,
  kRunStatus = 10,
};

/// Distributed-run lifecycle states carried in ClaimLeases / Heartbeat /
/// RunStatus replies.
enum class RunState : std::uint8_t {
  kUnknown = 0,   // no live coordinator registered under that run_id
  kRunning = 1,
  kComplete = 2,  // the coordinator finished the run on this daemon
};

/// Stable lowercase name ("hello", "solve_kle", ...); "unknown" otherwise.
const char* to_string(MessageType type);

// --- replies ---------------------------------------------------------------

struct HelloReply {
  std::uint32_t protocol_version = wire::kProtocolVersion;
  std::string server;  // human-readable build identification

  template <typename IO> void fields(IO& io) { io(protocol_version, server); }
};

struct SolveKleReply {
  std::uint64_t key = 0;              // content-hash key of the artifact
  std::uint32_t source = 0;           // store::FetchSource as u32
  double seconds = 0.0;               // server-side fetch wall time
  std::uint64_t mesh_triangles = 0;
  std::uint64_t num_eigenpairs = 0;
  std::vector<std::uint8_t> artifact; // encode_kle bytes; empty unless asked

  template <typename IO> void fields(IO& io) {
    io(key, source, seconds, mesh_triangles, num_eigenpairs, artifact);
  }
};

struct SampleBlockReply {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::vector<double> values;  // row-major, rows*cols entries — the exact
                               // bits KleFieldSampler::sample_block makes

  template <typename IO> void fields(IO& io) {
    io(rows, cols);
    io.row_major(rows, cols, values);  // no count prefix: rows*cols f64s
  }
};

struct RunSstaReply {
  double mean = 0.0;
  double sigma = 0.0;
  /// Tail quantiles of the worst-delay distribution, from the mergeable
  /// quantile sketch (exact while num_samples <= the sketch capacity).
  double p99 = 0.0;
  double p999 = 0.0;
  double setup_seconds = 0.0;
  double sampling_seconds = 0.0;
  double sta_seconds = 0.0;
  double total_seconds = 0.0;
  std::uint32_t source = 0;      // store::FetchSource as u32
  std::uint64_t mesh_triangles = 0;
  std::uint64_t threads_used = 0;
  std::uint64_t resumed_leases = 0;  // checkpointed runs: leases from ledger

  template <typename IO> void fields(IO& io) {
    io(mean, sigma, p99, p999, setup_seconds, sampling_seconds, sta_seconds,
       total_seconds, source, mesh_triangles, threads_used, resumed_leases);
  }
};

struct StatsReply {
  std::string json;  // sckl-serve-stats-v1 document

  template <typename IO> void fields(IO& io) { io(json); }
};

/// Shutdown is acknowledged with an empty body; the server then drains.
struct ShutdownReply {
  template <typename IO> void fields(IO&) {}
};

/// One lease granted to a remote worker.
struct WireLease {
  std::uint64_t index = 0;
  std::uint64_t first_block = 0;
  std::uint64_t num_blocks = 0;

  template <typename IO> void fields(IO& io) {
    io(index, first_block, num_blocks);
  }
};

struct ClaimLeasesReply {
  RunState run_state = RunState::kUnknown;
  // Everything below is only present (and only encoded) when kRunning.
  std::uint64_t config_hash = 0;
  // Workload spec — enough for a worker to rebuild the pipeline.
  std::string circuit;
  std::uint64_t seed = 0;              // ExperimentConfig seed (not MC seed)
  std::uint64_t r = 0;
  std::uint64_t num_eigenpairs = 0;    // resolved m, never 0
  double mesh_area_fraction = 0.0;
  double kernel_c = 0.0;               // coordinator's config value verbatim
                                       // (0 = the paper's fit); part of the
                                       // workload hash, so never re-derived
  // Sampling geometry, verbatim from the run's LedgerHeader. Workers use
  // these values directly — re-deriving any of them risks bit divergence.
  std::uint64_t num_samples = 0;
  std::uint64_t block_size = 0;
  std::uint64_t lease_blocks = 0;
  std::uint64_t mc_seed = 0;
  std::uint64_t sketch_capacity = 0;
  std::uint64_t num_endpoints = 0;
  std::uint64_t lease_ttl_ms = 0;
  std::uint64_t heartbeat_interval_ms = 0;
  std::vector<WireLease> leases;       // may be empty: nothing claimable now

  template <typename IO> void fields(IO& io) {
    io(run_state);
    if (run_state != RunState::kRunning) return;
    io(config_hash, circuit, seed, r, num_eigenpairs, mesh_area_fraction,
       kernel_c, num_samples, block_size, lease_blocks, mc_seed,
       sketch_capacity, num_endpoints, lease_ttl_ms, heartbeat_interval_ms,
       leases);
  }
};

struct PublishPartialReply {
  bool accepted = false;  // false: lease expired/re-issued — claim again

  template <typename IO> void fields(IO& io) { io(accepted); }
};

struct HeartbeatReply {
  RunState run_state = RunState::kUnknown;
  std::uint64_t leases_extended = 0;

  template <typename IO> void fields(IO& io) { io(run_state, leases_extended); }
};

struct RunStatusReply {
  RunState run_state = RunState::kUnknown;
  std::uint64_t config_hash = 0;
  std::uint64_t leases_total = 0;
  std::uint64_t leases_complete = 0;
  std::uint64_t leases_claimed = 0;

  template <typename IO> void fields(IO& io) {
    io(run_state, config_hash, leases_total, leases_complete, leases_claimed);
  }
};

// --- requests --------------------------------------------------------------

struct HelloRequest {
  static constexpr MessageType kType = MessageType::kHello;
  using Reply = HelloReply;
  template <typename IO> void fields(IO&) {}
};

struct SolveKleRequest {
  static constexpr MessageType kType = MessageType::kSolveKle;
  using Reply = SolveKleReply;

  store::KleArtifactConfig config;
  bool want_artifact = false;  // return the full encoded .sckl artifact

  template <typename IO> void fields(IO& io) { io(config, want_artifact); }
};

struct SampleBlockRequest {
  static constexpr MessageType kType = MessageType::kSampleBlock;
  using Reply = SampleBlockReply;

  store::KleArtifactConfig config;           // which KLE to sample from
  std::uint64_t r = 25;                      // truncation
  std::vector<geometry::Point2> locations;   // sample locations on the die
  field::SampleRange range;                  // global sample index range
  StreamKey stream;                          // parameter stream

  template <typename IO> void fields(IO& io) {
    io(config, r, locations, range, stream);
  }
};

struct RunSstaRequest {
  static constexpr MessageType kType = MessageType::kRunSsta;
  using Reply = RunSstaReply;

  std::string circuit = "c880";
  std::uint64_t num_samples = 200;
  std::uint64_t r = 25;
  std::uint64_t num_eigenpairs = 0;       // 0 = max(2r, 50), as ExperimentConfig
  double mesh_area_fraction = 0.001;
  double kernel_c = 0.0;                  // 0 = the paper's fitted value
  std::uint64_t seed = 1;
  std::uint64_t num_threads = 0;          // 0 = server default
  /// Non-empty: run through the checkpointed Monte Carlo runner, keeping a
  /// durable run ledger under the server's store root (requires the server
  /// to have a store). resume continues an interrupted run's ledger.
  std::string run_id;
  bool resume = false;
  /// Run as a distributed coordinator: register the lease table for remote
  /// ClaimLeases/PublishPartial workers and degrade to local compute only
  /// when they go quiet. Requires a non-empty run_id.
  bool distributed = false;
  /// Checkpointing geometry overrides (0 = the McSstaOptions/McRunOptions
  /// defaults). Part of the ledger header, so they must match on resume.
  std::uint64_t mc_block_size = 0;
  std::uint64_t mc_lease_blocks = 0;

  template <typename IO> void fields(IO& io) {
    io(circuit, num_samples, r, num_eigenpairs, mesh_area_fraction, kernel_c,
       seed, num_threads, run_id, resume, distributed, mc_block_size,
       mc_lease_blocks);
  }
};

struct StatsRequest {
  static constexpr MessageType kType = MessageType::kStats;
  using Reply = StatsReply;
  template <typename IO> void fields(IO&) {}
};

struct ShutdownRequest {
  static constexpr MessageType kType = MessageType::kShutdown;
  using Reply = ShutdownReply;
  template <typename IO> void fields(IO&) {}
};

/// ClaimLeases: a worker asks the coordinator daemon for up to max_leases
/// available leases of run_id. config_hash 0 means "not known yet" (the
/// first claim, before the worker has built its pipeline) — the reply's
/// spec + config_hash let it build one; any later mismatch is kPrecondition.
struct ClaimLeasesRequest {
  static constexpr MessageType kType = MessageType::kClaimLeases;
  using Reply = ClaimLeasesReply;

  std::string run_id;
  std::uint64_t worker_id = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t max_leases = 1;

  template <typename IO> void fields(IO& io) {
    io(run_id, worker_id, config_hash, max_leases);
  }
};

struct PublishPartialRequest {
  static constexpr MessageType kType = MessageType::kPublishPartial;
  using Reply = PublishPartialReply;

  std::string run_id;
  std::uint64_t worker_id = 0;
  std::uint64_t config_hash = 0;
  WireLease lease;
  std::vector<std::uint8_t> partial;   // ssta::detail::BlockPartial codec

  template <typename IO> void fields(IO& io) {
    io(run_id, worker_id, config_hash, lease, partial);
  }
};

struct HeartbeatRequest {
  static constexpr MessageType kType = MessageType::kHeartbeat;
  using Reply = HeartbeatReply;

  std::string run_id;
  std::uint64_t worker_id = 0;
  std::uint64_t config_hash = 0;

  template <typename IO> void fields(IO& io) {
    io(run_id, worker_id, config_hash);
  }
};

struct RunStatusRequest {
  static constexpr MessageType kType = MessageType::kRunStatus;
  using Reply = RunStatusReply;

  std::string run_id;

  template <typename IO> void fields(IO& io) { io(run_id); }
};

/// The type table: every request body, in MessageType order (alternative
/// i carries type i + 1). The server decodes into it; everything that
/// dispatches on the message type visits it.
using AnyRequest =
    std::variant<HelloRequest, SolveKleRequest, SampleBlockRequest,
                 RunSstaRequest, StatsRequest, ShutdownRequest,
                 ClaimLeasesRequest, PublishPartialRequest, HeartbeatRequest,
                 RunStatusRequest>;

/// True for the message types this build understands.
bool known_message_type(std::uint32_t type);

// --- the one codec ---------------------------------------------------------

namespace detail {

template <typename T>
concept WireStruct = requires(T& t, int& io) { t.fields(io); };

/// Appends fields to a payload. Takes the fields of a const message through
/// fields(), which is non-const only so Reader can share it: Writer never
/// writes to a field.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  template <typename... T> void operator()(const T&... v) { (put(v), ...); }

  /// SampleBlockReply's matrix: values.size() f64s with no count prefix,
  /// written by one tight loop into a buffer reserved once.
  void row_major(std::uint64_t rows, std::uint64_t cols,
                 const std::vector<double>& values);

 private:
  void put(bool v);
  void put(RunState v);
  void put(std::uint32_t v);
  void put(std::uint64_t v);
  void put(double v);
  void put(const std::string& v);
  void put(const std::vector<std::uint8_t>& v);
  void put(const store::KleArtifactConfig& v);
  void put(const geometry::Point2& v);
  void put(const field::SampleRange& v);
  void put(const StreamKey& v);
  template <typename T> void put(const std::vector<T>& v) {
    put(static_cast<std::uint64_t>(v.size()));
    for (const T& e : v) put(e);
  }
  template <WireStruct T> void put(const T& v) {
    const_cast<T&>(v).fields(*this);
  }

  std::vector<std::uint8_t>& out_;
};

/// Decodes fields from a ByteReader. Every count is bounded against the
/// bytes left before anything is allocated, so a hostile count is a typed
/// error, never a giant resize.
class Reader {
 public:
  explicit Reader(wire::ByteReader& r) : r_(r) {}

  template <typename... T> void operator()(T&... v) { (get(v), ...); }

  /// Reads rows*cols f64s. Each dimension is bounded before the product is
  /// formed: hostile header values must not wrap rows * cols past the
  /// check.
  void row_major(std::uint64_t rows, std::uint64_t cols,
                 std::vector<double>& values);

 private:
  void get(bool& v);
  void get(RunState& v);  // range-checked: an unknown state is kProtocol
  void get(std::uint32_t& v);
  void get(std::uint64_t& v);
  void get(double& v);
  void get(std::string& v);
  void get(std::vector<std::uint8_t>& v);
  void get(store::KleArtifactConfig& v);
  void get(geometry::Point2& v);
  void get(field::SampleRange& v);
  void get(StreamKey& v);
  template <typename T> void get(std::vector<T>& v) {
    const std::uint64_t count = r_.u64();
    r_.need_count(count, min_wire_size<T>(), "list elements");
    v.resize(static_cast<std::size_t>(count));
    for (T& e : v) get(e);
  }
  template <WireStruct T> void get(T& v) { v.fields(*this); }

  /// Encoded size of a default T: the smallest any T can encode to (its
  /// strings and lists empty), hence a safe per-element bound.
  template <typename T> static std::size_t min_wire_size() {
    static const std::size_t size = [] {
      std::vector<std::uint8_t> out;
      Writer{out}(T{});
      return out.size();
    }();
    return size;
  }

  wire::ByteReader& r_;
};

}  // namespace detail

/// Throws kProtocol unless `r` is fully consumed.
void expect_end(const wire::ByteReader& r);

/// Appends the fields of `message` (no status word) to `out`.
template <typename Message>
void encode(std::vector<std::uint8_t>& out, const Message& message) {
  detail::Writer{out}(message);
}

/// Decodes a whole message body from `r` (construct it with
/// ErrorCode::kProtocol): truncation, hostile counts and trailing bytes are
/// typed protocol errors, never crashes.
template <typename Message>
Message decode(wire::ByteReader& r) {
  Message message;
  detail::Reader{r}(message);
  expect_end(r);
  return message;
}

/// Decodes the body of a request of a known `type` into its alternative.
AnyRequest decode_request(MessageType type, wire::ByteReader& r);

/// Payload of a success reply: status 0, then the reply's fields.
template <typename Reply>
std::vector<std::uint8_t> encode_reply(const Reply& reply) {
  std::vector<std::uint8_t> out;
  wire::put_u32(out, 0);
  encode(out, reply);
  return out;
}

/// Payload of a failure reply: nonzero status (the ErrorCode) + message.
std::vector<std::uint8_t> make_error_reply(ErrorCode code,
                                           const std::string& message);

/// Reads the status word; on a nonzero status reads the message and throws
/// sckl::Error carrying the server's original ErrorCode.
void check_reply_status(wire::ByteReader& r);

/// Decodes a whole reply payload: status word, then the reply's fields.
template <typename Reply>
Reply decode_reply(wire::ByteReader& r) {
  check_reply_status(r);
  return decode<Reply>(r);
}

}  // namespace sckl::serve
