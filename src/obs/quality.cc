#include "src/obs/quality.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lightlt::obs {

WilsonInterval WilsonScore(uint64_t successes, uint64_t trials, double z) {
  WilsonInterval out;
  if (trials == 0) return out;  // vacuous [0, 1]
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(std::min(successes, trials)) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double spread =
      (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  out.center = p;
  out.lower = std::max(0.0, center - spread);
  out.upper = std::min(1.0, center + spread);
  return out;
}

const char* RecallSegmentName(size_t segment) {
  static const char* const kNames[kNumRecallSegments] = {"overall", "head",
                                                         "mid", "tail"};
  return segment < kNumRecallSegments ? kNames[segment] : "unknown";
}

void StreamingRecallEstimator::Add(int class_bucket, uint64_t successes,
                                   uint64_t trials) {
  if (trials == 0) return;
  if (successes > trials) successes = trials;
  auto feed = [&](size_t segment) {
    Cell& cell = cells_[segment];
    cell.queries.fetch_add(1, std::memory_order_relaxed);
    cell.successes.fetch_add(successes, std::memory_order_relaxed);
    cell.trials.fetch_add(trials, std::memory_order_relaxed);
  };
  feed(0);
  if (class_bucket >= 0 && class_bucket < 3) {
    feed(static_cast<size_t>(class_bucket) + 1);
  }
}

StreamingRecallEstimator::SegmentSnapshot StreamingRecallEstimator::Snapshot(
    size_t segment) const {
  SegmentSnapshot snap;
  if (segment >= kNumRecallSegments) return snap;
  const Cell& cell = cells_[segment];
  // Loads are individually relaxed; a snapshot taken concurrently with Add
  // may tear across the three fields, which only shifts the estimate by
  // one in-flight query.
  snap.queries = cell.queries.load(std::memory_order_relaxed);
  snap.successes = cell.successes.load(std::memory_order_relaxed);
  snap.trials = cell.trials.load(std::memory_order_relaxed);
  snap.recall = WilsonScore(snap.successes, snap.trials, z_);
  return snap;
}

double PopulationStabilityIndex(const HistogramSnapshot& expected,
                                const HistogramSnapshot& observed,
                                double floor_probability) {
  if (expected.count == 0 || observed.count == 0) return 0.0;
  const size_t buckets = std::max(expected.counts.size(),
                                  observed.counts.size());
  const double en = static_cast<double>(expected.count);
  const double on = static_cast<double>(observed.count);
  double psi = 0.0;
  for (size_t i = 0; i < buckets; ++i) {
    const uint64_t ec = i < expected.counts.size() ? expected.counts[i] : 0;
    const uint64_t oc = i < observed.counts.size() ? observed.counts[i] : 0;
    if (ec == 0 && oc == 0) continue;
    const double p = std::max(static_cast<double>(ec) / en, floor_probability);
    const double q = std::max(static_cast<double>(oc) / on, floor_probability);
    psi += (q - p) * std::log(q / p);
  }
  return psi;
}

DriftDetector::DriftDetector(Options options) : options_(std::move(options)) {}

void DriftDetector::AddWatch(const std::string& name, const Histogram* live,
                             const DriftWatchOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  Watch& watch = watches_[name];
  watch.live = live;
  watch.options = options;
  watch.cursor = live->Snapshot();  // ignore traffic before the watch
}

bool DriftDetector::FreezeBaseline(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = watches_.find(name);
  if (it == watches_.end()) return false;
  Watch& watch = it->second;
  const HistogramSnapshot now = watch.live->Snapshot();
  const HistogramSnapshot window = now.Delta(watch.cursor);
  if (window.count == 0) return false;
  watch.baseline = window;
  watch.cursor = now;
  watch.has_baseline = true;
  watch.strikes = 0;
  watch.drifted = false;
  watch.last_psi = 0.0;
  return true;
}

void DriftDetector::CheckAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, watch] : watches_) {
    if (!watch.has_baseline) continue;
    const HistogramSnapshot now = watch.live->Snapshot();
    const HistogramSnapshot window = now.Delta(watch.cursor);
    if (window.count < watch.options.min_window_count) {
      // Too little traffic to judge — let the window keep accumulating.
      continue;
    }
    watch.cursor = now;
    watch.last_psi = PopulationStabilityIndex(watch.baseline, window);
    const bool was_drifted = watch.drifted;
    if (watch.last_psi >= watch.options.psi_fire) {
      watch.strikes += 1;
      if (watch.strikes >= watch.options.consecutive) watch.drifted = true;
    } else if (watch.last_psi <= watch.options.psi_clear) {
      watch.strikes = 0;
      watch.drifted = false;
    }
    // PSI between clear and fire leaves both strikes and state untouched:
    // the hysteresis band.
    if (watch.drifted && !was_drifted) {
      fire_count_ += 1;
      if (options_.logger != nullptr) {
        options_.logger->Log(LogLevel::kWarn, "drift", "distribution drift",
                             {{"watch", name},
                              {"psi", watch.last_psi},
                              {"window_count", window.count}});
      }
    } else if (!watch.drifted && was_drifted && options_.logger != nullptr) {
      options_.logger->Log(LogLevel::kInfo, "drift", "drift cleared",
                           {{"watch", name}, {"psi", watch.last_psi}});
    }
    if (options_.registry != nullptr) {
      options_.registry
          ->GetGauge(WithLabel(options_.metric_prefix + "psi", "watch", name))
          ->Set(watch.last_psi);
      options_.registry
          ->GetGauge(
              WithLabel(options_.metric_prefix + "active", "watch", name))
          ->Set(watch.drifted ? 1.0 : 0.0);
    }
  }
}

bool DriftDetector::Drifted(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = watches_.find(name);
  return it != watches_.end() && it->second.drifted;
}

double DriftDetector::LastPsi(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = watches_.find(name);
  return it == watches_.end() ? 0.0 : it->second.last_psi;
}

uint64_t DriftDetector::fire_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fire_count_;
}

SlowQueryLog::SlowQueryLog(const Options& options) : options_(options) {
  ring_.reserve(options_.capacity);
}

void SlowQueryLog::Add(SlowQueryRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.id = next_id_++;
  if (options_.capacity == 0) {
    ++evicted_;
    return;
  }
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_slot_] = std::move(record);
    ++evicted_;
  }
  next_slot_ = (next_slot_ + 1) % options_.capacity;
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SlowQueryRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < options_.capacity) {
    out = ring_;  // ring not yet wrapped: insertion order is slot order
  } else {
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_slot_ + i) % ring_.size()]);
    }
  }
  return out;
}

uint64_t SlowQueryLog::captured_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

uint64_t SlowQueryLog::evicted_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

namespace {

std::string QualityJsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string QualityFormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string SlowQueryLog::RenderJsonl() const {
  std::string out;
  for (const SlowQueryRecord& rec : Snapshot()) {
    const ScanStats& scan = rec.explain.scan;
    out += "{\"id\":" + std::to_string(rec.id) + ",\"kind\":\"" +
           QualityJsonEscape(rec.kind) + "\",\"outcome\":\"" +
           QualityJsonEscape(rec.outcome) + "\",\"trace_id\":\"" +
           TraceIdHex(rec.trace_id) +
           "\",\"latency_seconds\":" + QualityFormatDouble(rec.latency_seconds) +
           ",\"recall\":" + QualityFormatDouble(rec.recall) +
           ",\"explain\":{\"chunks\":" + std::to_string(scan.chunks) +
           ",\"items\":" + std::to_string(scan.items) +
           ",\"probed_cells\":" + std::to_string(scan.probed_cells) +
           ",\"cpu_ns\":" + std::to_string(rec.explain.cpu_ns) +
           ",\"codes_decoded\":" + std::to_string(scan.codes_decoded) +
           ",\"lut_builds\":" + std::to_string(scan.lut_builds) +
           ",\"shortlist\":" + std::to_string(scan.shortlist) +
           ",\"degraded\":" + (rec.explain.degraded ? "true" : "false") +
           ",\"flat_fallback\":" +
           (rec.explain.flat_fallback ? "true" : "false") +
           ",\"coverage\":" + QualityFormatDouble(rec.explain.coverage) +
           ",\"shards_answered\":" +
           std::to_string(rec.explain.shards_answered) +
           ",\"failovers\":" + std::to_string(rec.explain.failovers) +
           "},\"spans\":[";
    for (size_t i = 0; i < rec.spans.size(); ++i) {
      const Trace::SpanRecord& span = rec.spans[i];
      if (i > 0) out += ",";
      out += "{\"name\":\"" + QualityJsonEscape(span.name) +
             "\",\"parent\":" + std::to_string(span.parent) +
             ",\"start_ns\":" + std::to_string(span.start_ns) +
             ",\"end_ns\":" + std::to_string(span.end_ns) +
             ",\"shard\":" + std::to_string(span.shard) +
             ",\"remote\":" + (span.remote ? "true" : "false") + "}";
    }
    out += "]}\n";
  }
  return out;
}

Status SlowQueryLog::DumpJsonl(const std::string& path) const {
  const std::string body = RenderJsonl();
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return Status::IoError("SlowQueryLog: cannot open " + path);
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != body.size() || !closed) {
    return Status::IoError("SlowQueryLog: short write to " + path);
  }
  return Status::Ok();
}

}  // namespace lightlt::obs
