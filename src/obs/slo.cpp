#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/context.hpp"
#include "util/json_writer.hpp"

namespace resex::obs {

namespace {

double nowSeconds() { return static_cast<double>(nowMicros()) * 1e-6; }

}  // namespace

void SloWindow::Bucket::reset(std::int64_t newIndex) {
  index = newIndex;
  latency.reset();
  total = 0;
  errors = 0;
  latencyBreaches = 0;
}

SloWindow::SloWindow(SloConfig config) : config_(config) {
  if (!(config_.windowSeconds > 0.0) || !(config_.bucketSeconds > 0.0))
    throw std::invalid_argument("SloWindow: window and bucket must be > 0");
  if (config_.bucketSeconds > config_.windowSeconds)
    throw std::invalid_argument("SloWindow: bucket larger than window");
  if (!(config_.objective > 0.0) || config_.objective >= 1.0)
    throw std::invalid_argument("SloWindow: objective must be in (0, 1)");
  // One extra slot so the window boundary never evicts a bucket that is
  // still (partially) inside [now - window, now].
  bucketCount_ = static_cast<std::size_t>(
                     std::ceil(config_.windowSeconds / config_.bucketSeconds)) +
                 1;
  ring_.resize(bucketCount_);
}

SloWindow::Bucket& SloWindow::bucketFor(std::int64_t index) {
  Bucket& bucket = ring_[static_cast<std::size_t>(index) % bucketCount_];
  if (bucket.index != index) bucket.reset(index);
  return bucket;
}

void SloWindow::record(double latencySeconds, bool error, double nowSeconds) {
  if (std::isnan(latencySeconds) || nowSeconds < 0.0) return;
  const auto index =
      static_cast<std::int64_t>(nowSeconds / config_.bucketSeconds);
  std::lock_guard lock(mutex_);
  Bucket& bucket = bucketFor(index);
  bucket.latency.add(latencySeconds);
  ++bucket.total;
  if (error) ++bucket.errors;
  if (config_.p99TargetSeconds > 0.0 && latencySeconds > config_.p99TargetSeconds)
    ++bucket.latencyBreaches;
}

void SloWindow::record(double latencySeconds, bool error) {
  record(latencySeconds, error, nowSeconds());
}

LatencyHistogram SloWindow::mergedAt(double nowSeconds, SloSnapshot* counts) const {
  const auto newest =
      static_cast<std::int64_t>(nowSeconds / config_.bucketSeconds);
  const auto oldest = static_cast<std::int64_t>(
      std::max(0.0, nowSeconds - config_.windowSeconds) / config_.bucketSeconds);
  LatencyHistogram merged{1e-6, 8};
  std::lock_guard lock(mutex_);
  for (const Bucket& bucket : ring_) {
    if (bucket.index < oldest || bucket.index > newest) continue;
    merged.merge(bucket.latency);
    if (counts) {
      counts->total += bucket.total;
      counts->errors += bucket.errors;
      counts->latencyBreaches += bucket.latencyBreaches;
    }
  }
  return merged;
}

SloSnapshot SloWindow::snapshotAt(double nowSeconds) const {
  SloSnapshot snap;
  snap.windowSeconds = config_.windowSeconds;
  snap.objective = config_.objective;
  snap.p99TargetSeconds = config_.p99TargetSeconds;
  const LatencyHistogram merged = mergedAt(nowSeconds, &snap);
  snap.p50 = merged.quantile(0.50);
  snap.p90 = merged.quantile(0.90);
  snap.p99 = merged.quantile(0.99);
  snap.meanLatency = merged.meanValue();
  if (snap.total > 0) {
    snap.errorRate =
        static_cast<double>(snap.errors) / static_cast<double>(snap.total);
    snap.burnRate = snap.errorRate / (1.0 - config_.objective);
  }
  return snap;
}

SloSnapshot SloWindow::snapshot() const { return snapshotAt(nowSeconds()); }

double SloWindow::quantileAt(double q, double nowSeconds) const {
  // Computed from the merged in-window histogram: q = 0.6 is a real p60,
  // not the nearest canned snapshot point.
  return mergedAt(nowSeconds, nullptr).quantile(q);
}

double SloWindow::quantile(double q) const {
  return quantileAt(q, nowSeconds());
}

SloRegistry& SloRegistry::global() {
  static SloRegistry registry;
  return registry;
}

namespace {

bool sameConfig(const SloConfig& a, const SloConfig& b) noexcept {
  return a.windowSeconds == b.windowSeconds &&
         a.bucketSeconds == b.bucketSeconds && a.objective == b.objective &&
         a.p99TargetSeconds == b.p99TargetSeconds;
}

}  // namespace

SloWindow& SloRegistry::window(const std::string& name, SloConfig config) {
  std::lock_guard lock(mutex_);
  for (auto& [existing, window] : windows_)
    if (existing == name) {
      // Re-registration must mean the same window, not a silent first-config-
      // wins collision: a second tenant registering "interactive" with a
      // different objective would otherwise inherit the first tenant's SLO.
      if (!sameConfig(window->config(), config))
        throw std::invalid_argument(
            "SloRegistry: class '" + name +
            "' already registered with a different SloConfig (use find() for "
            "config-agnostic reads)");
      return *window;
    }
  windows_.emplace_back(name, std::make_unique<SloWindow>(config));
  return *windows_.back().second;
}

SloWindow* SloRegistry::find(const std::string& name) const {
  std::lock_guard lock(mutex_);
  for (const auto& [existing, window] : windows_)
    if (existing == name) return window.get();
  return nullptr;
}

std::vector<SloSnapshot> SloRegistry::snapshotAll() const {
  std::vector<std::pair<std::string, SloWindow*>> windows;
  {
    std::lock_guard lock(mutex_);
    windows.reserve(windows_.size());
    for (const auto& [name, window] : windows_)
      windows.emplace_back(name, window.get());
  }
  std::vector<SloSnapshot> out;
  out.reserve(windows.size());
  for (const auto& [name, window] : windows) {
    SloSnapshot snap = window->snapshot();
    snap.name = name;
    out.push_back(std::move(snap));
  }
  return out;
}

std::string SloRegistry::toJson() const {
  JsonWriter json;
  json.beginObject();
  json.key("classes").beginArray();
  for (const SloSnapshot& snap : snapshotAll()) {
    json.beginObject();
    json.field("name", snap.name);
    json.field("window_seconds", snap.windowSeconds);
    json.field("total", snap.total);
    json.field("errors", snap.errors);
    json.field("latency_breaches", snap.latencyBreaches);
    json.field("p50_seconds", snap.p50);
    json.field("p90_seconds", snap.p90);
    json.field("p99_seconds", snap.p99);
    json.field("mean_seconds", snap.meanLatency);
    json.field("error_rate", snap.errorRate);
    json.field("burn_rate", snap.burnRate);
    json.field("objective", snap.objective);
    json.field("p99_target_seconds", snap.p99TargetSeconds);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  return json.str();
}

void SloRegistry::reset() {
  std::lock_guard lock(mutex_);
  windows_.clear();
}

}  // namespace resex::obs
