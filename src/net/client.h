// Remote shard clients (DESIGN.md §14).
//
// RemoteSearcherClient speaks the frame protocol to one ShardServer
// endpoint. It owns a small connection pool: an attempt pops a pooled
// connection (or dials a fresh one under the jittered-exponential
// RetryPolicy, bounded by the attempt's remaining deadline), runs one
// request/response exchange, and returns the connection to the pool only
// if the exchange was clean — any transport error discards the socket, so
// a poisoned stream can never serve a later request. Reconnects after a
// server restart therefore need no client restart: the next attempt simply
// dials again.
//
// Error mapping (what ReplicaHealthMonitor sees, identical to in-process
// failures): refused/reset/EOF → kUnavailable (retryable, drives
// suspect→down), expired budget → kDeadlineExceeded (timeout signal),
// caller cancel → kCancelled (no verdict). A server-side Status travels
// back verbatim in the response body and outranks transport guesses.
//
// RemoteTransport implements the Router's SearchTransport over a
// shard×replica endpoint grid, learning the partition layout (items,
// offsets, dim) from InfoRequest at Connect() time — the Router merges
// remote attempts bit-identically to local ones.

#ifndef LIGHTLT_NET_CLIENT_H_
#define LIGHTLT_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serving/transport.h"
#include "src/util/deadline.h"
#include "src/util/retry.h"
#include "src/util/status.h"

namespace lightlt::net {

struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct RemoteClientOptions {
  /// Reconnect/backoff schedule for dialing (jittered exponential, reused
  /// from artifact I/O retries). The dial loop is additionally bounded by
  /// the attempt's remaining deadline.
  RetryPolicy dial_retry;
  /// Per-dial cap inside the retry loop, so one SYN into a black hole
  /// cannot eat the whole attempt budget.
  double dial_timeout_seconds = 1.0;
  /// Connections kept warm per endpoint.
  size_t max_pooled_connections = 2;
  size_t max_frame_body = kMaxFrameBody;
  /// Optional registry for `{metric_prefix}...` instruments; must outlive
  /// every client created with it.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metric_prefix = "net_client_";
  /// Optional structured logger for transport errors; every line carries
  /// the request's trace_id so logs and traces correlate by grep.
  obs::Logger* logger = nullptr;
};

/// Exact per-client counters (one client = one endpoint).
struct RemoteClientStats {
  uint64_t connects = 0;    ///< successful dials
  uint64_t reconnects = 0;  ///< successful dials after the first
  uint64_t dial_failures = 0;
  uint64_t requests_sent = 0;
  uint64_t responses_ok = 0;     ///< clean exchange, any response code
  uint64_t transport_errors = 0; ///< exchange died on the wire
  uint64_t wire_errors = 0;      ///< corrupt/unexpected response frames
  /// Telemetry trailers discarded because they were corrupt — the search
  /// result was kept (degradation contract, DESIGN.md §15).
  uint64_t trace_drops = 0;
  uint64_t pooled_connections = 0;
};

class RemoteSearcherClient {
 public:
  RemoteSearcherClient(const Endpoint& endpoint,
                       const RemoteClientOptions& options);
  ~RemoteSearcherClient() = default;

  RemoteSearcherClient(const RemoteSearcherClient&) = delete;
  RemoteSearcherClient& operator=(const RemoteSearcherClient&) = delete;

  /// One remote replica attempt. Never throws; transport and server
  /// failures all land in ReplicaAttempt::status with the mapping above.
  /// With a non-null `trace`, opens an `rpc` span under `parent`,
  /// propagates the trace context on the wire, and stitches the server's
  /// span subtree back under the rpc span — a corrupt telemetry trailer
  /// degrades to a dropped subtree (counted), never a failed search.
  serving::ReplicaAttempt Search(uint32_t shard, uint32_t replica,
                                 const float* query, size_t dim,
                                 size_t top_k, const ScanControl& control,
                                 obs::Trace* trace = nullptr,
                                 const obs::Span* parent = nullptr);

  /// Fetches the hosted-shard layout (items, global offset, dim).
  Result<WireInfoResponse> GetInfo(uint32_t shard, const Deadline& deadline);

  /// Pulls the server's full MetricsRegistry snapshot over the metrics
  /// admin frame (the FleetCollector's poll primitive).
  Result<WireMetricsResponse> GetMetrics(const Deadline& deadline);

  /// Pulls the server's cumulative profile snapshot over the profile
  /// admin frame (kFailedPrecondition when the server has no profiler).
  Result<WireProfileResponse> GetProfile(const Deadline& deadline);

  /// Round-trips an empty ping (liveness probe).
  Status Ping(const Deadline& deadline);

  /// Drops every pooled connection (the next attempt dials fresh).
  void CloseIdleConnections();

  const Endpoint& endpoint() const { return endpoint_; }
  RemoteClientStats stats() const;

 private:
  /// Pops a pooled connection or dials with retry/backoff under `control`.
  Result<Socket> Acquire(const ScanControl& control);
  /// Returns a healthy connection to the pool (or closes it if full).
  void Release(Socket sock);
  /// One request/response exchange on an acquired connection. A non-OK
  /// status means the socket must be discarded.
  Status Exchange(Socket* sock, FrameType request_type,
                  const std::vector<uint8_t>& request_body,
                  FrameType expected_response, Frame* response,
                  const ScanControl& control);
  /// One admin round trip (GetInfo / GetMetrics / GetProfile): acquire →
  /// exchange → decode → release. A transport or decode error poisons the
  /// connection, is logged as `op`, and a corrupt frame maps to a
  /// retryable kUnavailable counted as a wire error; a non-OK server
  /// verdict comes back as its status.
  template <typename Response>
  Result<Response> AdminCall(const char* op, FrameType request_type,
                             const std::vector<uint8_t>& request_body,
                             FrameType response_type,
                             Status (*decode)(const std::vector<uint8_t>&,
                                              Response*),
                             const Deadline& deadline);
  void RegisterMetrics();

  Endpoint endpoint_;
  RemoteClientOptions options_;

  std::mutex pool_mu_;
  std::vector<Socket> pool_;
  bool connected_once_ = false;

  std::atomic<uint64_t> connects_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> dial_failures_{0};
  std::atomic<uint64_t> requests_sent_{0};
  std::atomic<uint64_t> responses_ok_{0};
  std::atomic<uint64_t> transport_errors_{0};
  std::atomic<uint64_t> wire_errors_{0};
  std::atomic<uint64_t> trace_drops_{0};

  obs::Gauge* pooled_connections_gauge_ = nullptr;
  obs::Counter* connects_counter_ = nullptr;
  obs::Counter* reconnects_counter_ = nullptr;
  obs::Counter* frames_sent_counter_ = nullptr;
  obs::Counter* frames_received_counter_ = nullptr;
  obs::Counter* errors_refused_counter_ = nullptr;
  obs::Counter* errors_reset_counter_ = nullptr;
  obs::Counter* errors_timeout_counter_ = nullptr;
  obs::Counter* errors_corrupt_counter_ = nullptr;
  obs::Counter* trace_drops_counter_ = nullptr;

  /// Logs one transport-level failure with trace-id correlation.
  void LogTransportError(const char* op, uint64_t trace_id,
                         const Status& status);
};

/// SearchTransport over a shard×replica endpoint grid. Each (shard,
/// replica) pair maps to one RemoteSearcherClient; the Router's failover
/// walk across replicas therefore walks across endpoints.
class RemoteTransport : public serving::SearchTransport {
 public:
  /// `endpoints[shard][replica]` — every shard must list the same number
  /// of replicas. Connect() fetches each shard's layout via InfoRequest
  /// (trying replicas in order) and fails if any shard is unreachable or
  /// the layouts disagree.
  static Result<std::shared_ptr<RemoteTransport>> Connect(
      const std::vector<std::vector<Endpoint>>& endpoints,
      const RemoteClientOptions& options, const Deadline& deadline);

  size_t num_shards() const override { return num_shards_; }
  size_t num_replicas() const override { return num_replicas_; }
  size_t shard_items(size_t shard) const override { return items_[shard]; }
  size_t total_items() const override { return total_items_; }

  serving::ReplicaAttempt SearchReplica(size_t shard, size_t replica,
                                        const float* query, size_t top_k,
                                        const ScanControl& control,
                                        obs::Trace* trace,
                                        const obs::Span* parent)
      const override;

  RemoteSearcherClient& client(size_t shard, size_t replica) const {
    return *clients_[shard * num_replicas_ + replica];
  }
  uint32_t dim() const { return dim_; }

 private:
  RemoteTransport() = default;

  size_t num_shards_ = 0;
  size_t num_replicas_ = 0;
  std::vector<size_t> items_;
  size_t total_items_ = 0;
  uint32_t dim_ = 0;
  /// Row-major [shard * num_replicas + replica]; unique_ptr for address
  /// stability (clients hold mutexes).
  std::vector<std::unique_ptr<RemoteSearcherClient>> clients_;
};

}  // namespace lightlt::net

#endif  // LIGHTLT_NET_CLIENT_H_
