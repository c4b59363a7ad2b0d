// Span-based request tracing (DESIGN.md §10, §15).
//
// A Trace owns the span records of one request; a Span is a move-only RAII
// handle that closes its record on destruction (or an explicit End()).
// Spans form a tree via parent indices, mapping onto the request lifecycle
// of §9: query → embed / admission / search → router → shard_<s> →
// (ivf_route | adc_scan) / rerank. The clock is injectable so tests assert
// exact durations.
//
// Since PR 9 a trace is also the stitching point for distributed requests
// (DESIGN.md §15): every trace carries a 64-bit trace id plus a wall-clock
// epoch anchor captured at construction, so spans recorded on another
// process's steady clock can be re-based onto this trace's timeline and
// exported with absolute timestamps. AttachRemote() splices a subtree of
// already-closed remote records under a local parent span.
//
// Thread-safety: spans may be opened and closed from different threads
// (QueryBatch rows); Trace guards its record vector with a mutex. Tracing
// is strictly opt-in — a null Trace* costs one branch per span site.

#ifndef LIGHTLT_OBS_TRACE_H_
#define LIGHTLT_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lightlt::obs {

/// Monotonic nanosecond clock; injectable for deterministic tests.
using TraceClock = std::function<uint64_t()>;

/// The default steady-clock nanosecond reading.
uint64_t SteadyNowNanos();

/// The default wall-clock (unix epoch) nanosecond reading.
uint64_t UnixNowNanos();

/// Fixed-width lowercase hex rendering of a trace id, for log stamping
/// ("trace_id=000000000000002a") so logs and traces correlate by grep.
std::string TraceIdHex(uint64_t trace_id);

class Trace;

/// RAII handle to one open span. Move-only; destruction ends the span.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  /// Closes the span (idempotent; a moved-from or default span is a no-op).
  void End();

  /// Index of this span's record inside its trace; -1 for an empty span.
  int32_t index() const { return index_; }

 private:
  friend class Trace;
  Span(Trace* trace, int32_t index) : trace_(trace), index_(index) {}

  Trace* trace_ = nullptr;
  int32_t index_ = -1;
};

/// One request's span tree.
class Trace {
 public:
  struct SpanRecord {
    std::string name;
    int32_t parent = -1;       ///< index of the parent record, -1 = root
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;       ///< 0 while still open
    int32_t shard = -1;        ///< owning shard for stitched remote spans
    bool remote = false;       ///< recorded in another process
  };

  /// Hard cap on records per trace: a pathological request path (retry
  /// storms, huge fan-out, remote subtrees) cannot grow an unbounded span
  /// tree. Spans past the cap are dropped and counted exactly.
  static constexpr size_t kDefaultMaxSpans = 4096;

  /// `clock` defaults to the steady clock, `wall_clock` to the unix
  /// wall clock. Both anchors are captured here, back to back, so
  /// unix_minus_steady() is fixed for the life of the trace.
  explicit Trace(TraceClock clock = {}, TraceClock wall_clock = {});

  /// Process-unique (random-ish) id; overridable for deterministic tests.
  uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(uint64_t id) { trace_id_ = id; }

  /// Wall-clock / steady-clock anchor pair captured at trace start.
  uint64_t epoch_unix_nanos() const { return epoch_unix_ns_; }
  uint64_t epoch_steady_nanos() const { return epoch_steady_ns_; }

  /// The epoch-anchored clock offset: add it to a steady reading from this
  /// trace's clock to get an absolute unix timestamp. This is the value
  /// propagated in the wire trace context (DESIGN.md §15).
  int64_t unix_minus_steady() const {
    return static_cast<int64_t>(epoch_unix_ns_) -
           static_cast<int64_t>(epoch_steady_ns_);
  }

  /// Maps one of this trace's steady timestamps to absolute unix nanos.
  uint64_t AbsoluteUnixNanos(uint64_t steady_ns) const;

  /// Opens a root-level span.
  Span StartSpan(const std::string& name);
  /// Opens a child of `parent` (which must belong to this trace and be
  /// open; an empty parent produces a root-level span).
  Span StartSpan(const std::string& name, const Span& parent);
  /// Opens a child of `parent` whose start is back-dated to `start_ns`
  /// (a reading of this trace's clock taken before the trace existed —
  /// the server uses this so rpc_recv covers frame receipt).
  Span StartSpanAt(const std::string& name, const Span& parent,
                   uint64_t start_ns);

  /// Records an already-finished span; returns its record index.
  int32_t AddCompleteSpan(const std::string& name, const Span& parent,
                          uint64_t start_ns, uint64_t end_ns);

  /// Splices a remote subtree under `parent`: parent indices inside
  /// `remote` are re-based onto this trace's record vector (roots of the
  /// subtree, parent < 0, hang off `parent`; out-of-range parents are
  /// clamped to `parent` rather than trusted). Every attached record is
  /// marked remote and attributed to `shard`. Timestamps are taken as
  /// already aligned to this trace's steady timeline — the wire layer
  /// applies the clock offset before calling (DESIGN.md §15).
  void AttachRemote(const Span& parent, std::vector<SpanRecord> remote,
                    int32_t shard);

  /// Snapshot of all records (open spans have end_ns == 0).
  std::vector<SpanRecord> Records() const;

  /// Adjusts the span cap (takes effect for subsequent spans only).
  void set_max_spans(size_t max_spans);
  size_t max_spans() const;
  /// Spans dropped at the cap (StartSpan/AddCompleteSpan/AttachRemote).
  uint64_t dropped_spans() const;

  /// Human-readable indented tree with per-span durations:
  ///   query 812us
  ///     embed 120us
  ///     search 650us
  std::string Render() const;

  /// One JSON object per span, one line each, with absolute unix
  /// timestamps (start_unix_ns) alongside the steady readings — the
  /// format tools/dump_trace emits for the bench harness.
  std::string RenderJsonl() const;

 private:
  friend class Span;
  void EndSpan(int32_t index);

  TraceClock clock_;
  uint64_t trace_id_ = 0;
  uint64_t epoch_unix_ns_ = 0;
  uint64_t epoch_steady_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
  size_t max_spans_ = kDefaultMaxSpans;
  uint64_t dropped_spans_ = 0;
};

/// Opens `name` under `parent` (root-level when `parent` is null) when
/// `trace` is non-null; an empty, no-op Span otherwise. The one span site
/// helper of the serving and wire paths: an untraced request pays one
/// branch and builds no name string.
Span MaybeSpan(Trace* trace, std::string_view name, const Span* parent);

/// Shifts every record's timestamps by `offset_ns`, clamping at zero and
/// preserving end_ns == 0 (still-open) markers. The server side uses this
/// to re-base its spans onto the client's steady timeline before they go
/// on the wire: offset = server unix_minus_steady − client unix_minus_steady.
void ShiftSpanTimes(std::vector<Trace::SpanRecord>* records,
                    int64_t offset_ns);

}  // namespace lightlt::obs

#endif  // LIGHTLT_OBS_TRACE_H_
