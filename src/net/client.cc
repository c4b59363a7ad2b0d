#include "src/net/client.h"

#include <algorithm>
#include <utility>

#include "src/util/timer.h"

namespace lightlt::net {

RemoteSearcherClient::RemoteSearcherClient(const Endpoint& endpoint,
                                           const RemoteClientOptions& options)
    : endpoint_(endpoint), options_(options) {
  if (options_.max_pooled_connections == 0) {
    options_.max_pooled_connections = 1;
  }
  RegisterMetrics();
}

void RemoteSearcherClient::RegisterMetrics() {
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  const std::string ep =
      endpoint_.host + ":" + std::to_string(endpoint_.port);
  const std::string& p = options_.metric_prefix;
  pooled_connections_gauge_ = reg->GetGauge(
      obs::WithLabel(p + "pooled_connections", "endpoint", ep));
  connects_counter_ =
      reg->GetCounter(obs::WithLabel(p + "connects_total", "endpoint", ep));
  reconnects_counter_ =
      reg->GetCounter(obs::WithLabel(p + "reconnects_total", "endpoint", ep));
  frames_sent_counter_ = reg->GetCounter(
      obs::WithLabel(p + "frames_sent_total", "endpoint", ep));
  frames_received_counter_ = reg->GetCounter(
      obs::WithLabel(p + "frames_received_total", "endpoint", ep));
  const std::string errors = p + "wire_errors_total";
  errors_refused_counter_ =
      reg->GetCounter(obs::WithLabel(errors, "kind", "refused"));
  errors_reset_counter_ =
      reg->GetCounter(obs::WithLabel(errors, "kind", "reset"));
  errors_timeout_counter_ =
      reg->GetCounter(obs::WithLabel(errors, "kind", "timeout"));
  errors_corrupt_counter_ =
      reg->GetCounter(obs::WithLabel(errors, "kind", "corrupt"));
  trace_drops_counter_ = reg->GetCounter(
      obs::WithLabel(p + "trace_drops_total", "endpoint", ep));
}

void RemoteSearcherClient::LogTransportError(const char* op,
                                             uint64_t trace_id,
                                             const Status& status) {
  if (options_.logger == nullptr) return;
  options_.logger->Log(
      obs::LogLevel::kWarn, "net_client", "transport error",
      {{"op", op},
       {"endpoint", endpoint_.host + ":" + std::to_string(endpoint_.port)},
       {"trace_id", obs::TraceIdHex(trace_id)},
       {"code", std::string(Status::CodeName(status.code()))},
       {"error", status.message()}});
}

Result<Socket> RemoteSearcherClient::Acquire(const ScanControl& control) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!pool_.empty()) {
      Socket sock = std::move(pool_.back());
      pool_.pop_back();
      if (pooled_connections_gauge_ != nullptr) {
        pooled_connections_gauge_->Set(static_cast<double>(pool_.size()));
      }
      return sock;
    }
  }
  // Dial under the attempt's remaining budget with jittered-exponential
  // backoff between failures; each individual dial is additionally capped
  // so one black-hole SYN cannot eat the whole budget.
  Result<Socket> dialed = CallWithRetry(
      options_.dial_retry,
      [&]() -> Result<Socket> {
        LIGHTLT_RETURN_IF_ERROR(control.Check());
        Deadline dial = Deadline::After(
            std::min(options_.dial_timeout_seconds,
                     control.deadline.RemainingSeconds()));
        return Socket::ConnectTcp(endpoint_.host, endpoint_.port, dial);
      },
      control.deadline);
  if (!dialed.ok()) {
    dial_failures_.fetch_add(1, std::memory_order_relaxed);
    if (dialed.status().code() == StatusCode::kUnavailable &&
        errors_refused_counter_ != nullptr) {
      errors_refused_counter_->Increment();
    }
    return dialed;
  }
  bool reconnect;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    reconnect = connected_once_;
    connected_once_ = true;
  }
  connects_.fetch_add(1, std::memory_order_relaxed);
  if (connects_counter_ != nullptr) connects_counter_->Increment();
  if (reconnect) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    if (reconnects_counter_ != nullptr) reconnects_counter_->Increment();
  }
  return dialed;
}

void RemoteSearcherClient::Release(Socket sock) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_.size() < options_.max_pooled_connections) {
    pool_.push_back(std::move(sock));
  }
  if (pooled_connections_gauge_ != nullptr) {
    pooled_connections_gauge_->Set(static_cast<double>(pool_.size()));
  }
}

void RemoteSearcherClient::CloseIdleConnections() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  pool_.clear();
  if (pooled_connections_gauge_ != nullptr) pooled_connections_gauge_->Set(0);
}

Status RemoteSearcherClient::Exchange(Socket* sock, FrameType request_type,
                                      const std::vector<uint8_t>& request_body,
                                      FrameType expected_response,
                                      Frame* response,
                                      const ScanControl& control) {
  requests_sent_.fetch_add(1, std::memory_order_relaxed);
  LIGHTLT_RETURN_IF_ERROR(
      WriteFrame(sock, request_type, request_body, control));
  if (frames_sent_counter_ != nullptr) frames_sent_counter_->Increment();
  LIGHTLT_RETURN_IF_ERROR(
      ReadFrame(sock, response, control, options_.max_frame_body));
  if (frames_received_counter_ != nullptr) {
    frames_received_counter_->Increment();
  }
  if (response->type != expected_response) {
    return Status::IoError("net: unexpected response frame type");
  }
  return Status::Ok();
}

serving::ReplicaAttempt RemoteSearcherClient::Search(
    uint32_t shard, uint32_t replica, const float* query, size_t dim,
    size_t top_k, const ScanControl& control, obs::Trace* trace,
    const obs::Span* parent) {
  serving::ReplicaAttempt attempt;
  WallTimer timer;
  auto finish = [&](Status status) {
    attempt.status = std::move(status);
    attempt.latency_seconds = timer.ElapsedSeconds();
    return attempt;
  };

  Status entry = control.Check();
  if (!entry.ok()) return finish(std::move(entry));

  // The rpc span covers dial + send + server turnaround + receive; the
  // stitched server subtree lands under it, so per-hop wire time shows up
  // as the gap between this span's start and the remote rpc_recv start.
  obs::Span rpc_span = obs::MaybeSpan(trace, "rpc", parent);
  const uint64_t trace_id = trace != nullptr ? trace->trace_id() : 0;

  Result<Socket> acquired = Acquire(control);
  if (!acquired.ok()) {
    LogTransportError("search_dial", trace_id, acquired.status());
    return finish(acquired.status());
  }
  Socket sock = std::move(acquired).value();

  WireSearchRequest req;
  req.shard = shard;
  req.replica = replica;
  req.top_k = static_cast<uint32_t>(top_k);
  // Propagate the *remaining* budget, not the original: dialing and
  // backoff already spent their share, and the server re-materialises
  // this number as its own scan deadline.
  req.budget_seconds = control.deadline.IsInfinite()
                           ? -1.0
                           : std::max(0.0,
                                      control.deadline.RemainingSeconds());
  req.query.assign(query, query + dim);
  if (trace != nullptr) {
    req.trace.trace_id = trace_id;
    req.trace.parent_span = rpc_span.index();
    req.trace.sampled = true;
    req.trace.unix_minus_steady = trace->unix_minus_steady();
  }

  Frame response;
  Status status = Exchange(&sock, FrameType::kSearchRequest,
                           EncodeSearchRequest(req),
                           FrameType::kSearchResponse, &response, control);
  WireSearchResponse resp;
  if (status.ok()) {
    status = DecodeSearchResponse(response.body, &resp);
  }
  if (!status.ok()) {
    // The stream is poisoned either way — never pool it.
    transport_errors_.fetch_add(1, std::memory_order_relaxed);
    LogTransportError("search", trace_id, status);
    switch (status.code()) {
      case StatusCode::kIoError:
        // Corrupt or mis-typed frame: the CRC (or framing) caught in-flight
        // damage. The connection is dead but the replica may be fine —
        // surface as retryable so failover proceeds.
        wire_errors_.fetch_add(1, std::memory_order_relaxed);
        if (errors_corrupt_counter_ != nullptr) {
          errors_corrupt_counter_->Increment();
        }
        return finish(Status::Unavailable("net: corrupt response frame: " +
                                          status.message()));
      case StatusCode::kDeadlineExceeded:
        if (errors_timeout_counter_ != nullptr) {
          errors_timeout_counter_->Increment();
        }
        return finish(std::move(status));
      case StatusCode::kUnavailable:
        if (errors_reset_counter_ != nullptr) {
          errors_reset_counter_->Increment();
        }
        return finish(std::move(status));
      default:  // kCancelled and anything else pass through untouched
        return finish(std::move(status));
    }
  }

  responses_ok_.fetch_add(1, std::memory_order_relaxed);
  Release(std::move(sock));

  // Stitch the server's subtree (already on our steady timeline) under
  // the rpc span; a corrupt trailer was discarded by the lenient decoder
  // and only bumps the drop counter — the hits below are still served.
  if (resp.trace_corrupt) {
    trace_drops_.fetch_add(1, std::memory_order_relaxed);
    if (trace_drops_counter_ != nullptr) trace_drops_counter_->Increment();
  } else if (trace != nullptr && !resp.spans.empty()) {
    trace->AttachRemote(rpc_span, std::move(resp.spans),
                        static_cast<int32_t>(shard));
  }
  rpc_span.End();

  const StatusCode code = StatusCodeFromWire(resp.code);
  attempt.shed = resp.shed;
  if (code == StatusCode::kOk) {
    attempt.hits = std::move(resp.hits);
    return finish(Status::Ok());
  }
  // The server's verdict travels back verbatim (kDeadlineExceeded from a
  // server-side scan cut stays a deadline signal, not a transport error).
  return finish(Status(code, "remote: " + resp.message));
}

template <typename Response>
Result<Response> RemoteSearcherClient::AdminCall(
    const char* op, FrameType request_type,
    const std::vector<uint8_t>& request_body, FrameType response_type,
    Status (*decode)(const std::vector<uint8_t>&, Response*),
    const Deadline& deadline) {
  const ScanControl control{deadline, CancellationToken()};
  Result<Socket> acquired = Acquire(control);
  if (!acquired.ok()) return acquired.status();
  Socket sock = std::move(acquired).value();

  Frame response;
  Status status = Exchange(&sock, request_type, request_body, response_type,
                           &response, control);
  Response resp;
  if (status.ok()) status = decode(response.body, &resp);
  if (!status.ok()) {
    transport_errors_.fetch_add(1, std::memory_order_relaxed);
    LogTransportError(op, 0, status);
    if (status.code() == StatusCode::kIoError) {
      wire_errors_.fetch_add(1, std::memory_order_relaxed);
      if (errors_corrupt_counter_ != nullptr) {
        errors_corrupt_counter_->Increment();
      }
      return Status::Unavailable("net: corrupt response frame: " +
                                 status.message());
    }
    return status;
  }
  responses_ok_.fetch_add(1, std::memory_order_relaxed);
  Release(std::move(sock));
  const StatusCode code = StatusCodeFromWire(resp.code);
  if (code != StatusCode::kOk) {
    return Status(code, "remote: " + resp.message);
  }
  return resp;
}

Result<WireInfoResponse> RemoteSearcherClient::GetInfo(
    uint32_t shard, const Deadline& deadline) {
  return AdminCall("get_info", FrameType::kInfoRequest,
                   EncodeInfoRequest(shard), FrameType::kInfoResponse,
                   &DecodeInfoResponse, deadline);
}

Result<WireMetricsResponse> RemoteSearcherClient::GetMetrics(
    const Deadline& deadline) {
  return AdminCall("get_metrics", FrameType::kMetricsRequest,
                   EncodeMetricsRequest(), FrameType::kMetricsResponse,
                   &DecodeMetricsResponse, deadline);
}

Result<WireProfileResponse> RemoteSearcherClient::GetProfile(
    const Deadline& deadline) {
  return AdminCall("get_profile", FrameType::kProfileRequest,
                   EncodeProfileRequest(), FrameType::kProfileResponse,
                   &DecodeProfileResponse, deadline);
}

Status RemoteSearcherClient::Ping(const Deadline& deadline) {
  const ScanControl control{deadline, CancellationToken()};
  Result<Socket> acquired = Acquire(control);
  if (!acquired.ok()) return acquired.status();
  Socket sock = std::move(acquired).value();
  Frame response;
  Status status = Exchange(&sock, FrameType::kPing, {}, FrameType::kPong,
                           &response, control);
  if (!status.ok()) {
    transport_errors_.fetch_add(1, std::memory_order_relaxed);
    return status;
  }
  responses_ok_.fetch_add(1, std::memory_order_relaxed);
  Release(std::move(sock));
  return Status::Ok();
}

RemoteClientStats RemoteSearcherClient::stats() const {
  RemoteClientStats s;
  s.connects = connects_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.dial_failures = dial_failures_.load(std::memory_order_relaxed);
  s.requests_sent = requests_sent_.load(std::memory_order_relaxed);
  s.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  s.transport_errors = transport_errors_.load(std::memory_order_relaxed);
  s.wire_errors = wire_errors_.load(std::memory_order_relaxed);
  s.trace_drops = trace_drops_.load(std::memory_order_relaxed);
  {
    auto* self = const_cast<RemoteSearcherClient*>(this);
    std::lock_guard<std::mutex> lock(self->pool_mu_);
    s.pooled_connections = pool_.size();
  }
  return s;
}

// ---------------------------------------------------------------------------
// RemoteTransport
// ---------------------------------------------------------------------------

Result<std::shared_ptr<RemoteTransport>> RemoteTransport::Connect(
    const std::vector<std::vector<Endpoint>>& endpoints,
    const RemoteClientOptions& options, const Deadline& deadline) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("RemoteTransport: no shards");
  }
  const size_t num_replicas = endpoints.front().size();
  if (num_replicas == 0) {
    return Status::InvalidArgument("RemoteTransport: no replicas");
  }
  for (const auto& shard_eps : endpoints) {
    if (shard_eps.size() != num_replicas) {
      return Status::InvalidArgument(
          "RemoteTransport: ragged endpoint grid (every shard must list "
          "the same number of replicas)");
    }
  }

  auto transport = std::shared_ptr<RemoteTransport>(new RemoteTransport());
  transport->num_shards_ = endpoints.size();
  transport->num_replicas_ = num_replicas;
  transport->items_.resize(endpoints.size(), 0);
  for (size_t s = 0; s < endpoints.size(); ++s) {
    for (size_t r = 0; r < num_replicas; ++r) {
      transport->clients_.push_back(std::make_unique<RemoteSearcherClient>(
          endpoints[s][r], options));
    }
  }

  // Learn the partition layout from each shard (first replica that
  // answers); all shards must agree on total size and dimension.
  for (size_t s = 0; s < transport->num_shards_; ++s) {
    Status last = Status::Unavailable(
        "RemoteTransport: no replica of shard " + std::to_string(s) +
        " answered an info request");
    bool got = false;
    for (size_t r = 0; r < num_replicas && !got; ++r) {
      Result<WireInfoResponse> info = transport->client(s, r).GetInfo(
          static_cast<uint32_t>(s), deadline);
      if (!info.ok()) {
        last = info.status();
        continue;
      }
      const WireInfoResponse& layout = info.value();
      transport->items_[s] = layout.items;
      if (s == 0) {
        transport->total_items_ = layout.total_items;
        transport->dim_ = layout.dim;
      } else if (transport->total_items_ != layout.total_items ||
                 transport->dim_ != layout.dim) {
        return Status::FailedPrecondition(
            "RemoteTransport: shards disagree on corpus layout");
      }
      got = true;
    }
    if (!got) return last;
  }
  return transport;
}

serving::ReplicaAttempt RemoteTransport::SearchReplica(
    size_t shard, size_t replica, const float* query, size_t top_k,
    const ScanControl& control, obs::Trace* trace,
    const obs::Span* parent) const {
  return client(shard, replica)
      .Search(static_cast<uint32_t>(shard), static_cast<uint32_t>(replica),
              query, dim_, top_k, control, trace, parent);
}

}  // namespace lightlt::net
