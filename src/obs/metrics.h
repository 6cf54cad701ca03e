// Thread-safe metrics registry: monotonic counters, gauges and
// fixed-bucket latency histograms with percentile estimation.
//
// Design (see DESIGN.md "Observability"):
//  - Metric objects are owned by a Registry and pointer-stable for its
//    lifetime, so hot paths resolve a metric once and then update it
//    lock-free (relaxed atomics; metrics are statistics, not
//    synchronization).
//  - Names are flat dotted strings ("monitor.stage0.verify_us"); the
//    stage/variant dimension is encoded in the name because the
//    cardinality is tiny and fixed at initialization.
//  - Snapshot() produces a plain-data RegistrySnapshot that serializes
//    to JSON and parses back (bench tooling round-trips dumps).
//  - Registry::Default() is the process-wide instance every production
//    component records into; tests use private instances.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace mvtee::obs {

// Monotonically increasing event/byte counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time signed value (queue depths, active enclaves, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  // Raises the value to `v` if it is higher (a high-water mark that
  // several threads may feed).
  void Max(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

struct HistogramStats {
  uint64_t count = 0;
  double sum = 0;  // sum of observed values
  int64_t min = 0;
  int64_t max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;

  double mean() const { return count ? sum / static_cast<double>(count) : 0; }
};

// Fixed-bucket histogram for non-negative integer samples (latencies in
// microseconds, message sizes in bytes). Bucket upper bounds grow
// geometrically (~1.5x) from 1 to ~3e9, so percentile estimates carry
// at most ~25% relative bucket error across the full range.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 56;  // + overflow bucket

  void Observe(int64_t value);

  // Percentile estimate (q in [0,1]) by linear interpolation inside the
  // bucket where the rank falls, clamped to the observed min/max.
  double Percentile(double q) const;

  HistogramStats Stats() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void Reset();

  // Upper bound of bucket `i` (inclusive); exposed for tests.
  static int64_t BucketBound(size_t i);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets + 1> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<int64_t> min_{0};
  std::atomic<int64_t> max_{0};
};

// Plain-data snapshot of a registry; serializes to/from JSON.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramStats> histograms;

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  //  sum, mean, min, max, p50, p95, p99}}}
  std::string ToJson(int indent = 2) const;
  static util::Result<RegistrySnapshot> FromJson(std::string_view json);

  // this - base for counters and histogram counts/sums (per-run deltas
  // over a cumulative registry). Gauges and percentiles keep the newer
  // value; metrics absent from `base` pass through unchanged.
  RegistrySnapshot DeltaSince(const RegistrySnapshot& base) const;
};

class Registry {
 public:
  // Returns the metric with `name`, creating it on first use. Pointers
  // are stable for the registry's lifetime. A name identifies one kind
  // of metric; reusing it with a different kind aborts (programmer
  // error).
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  RegistrySnapshot Snapshot() const;
  std::string ToJson(int indent = 2) const { return Snapshot().ToJson(indent); }

  // Zeroes every metric (registrations and pointers survive).
  void Reset();

  // Process-wide registry used by the production wiring (monitor,
  // variant host, secure channels, executors). Never destroyed, so
  // metric updates during static teardown stay safe.
  static Registry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Mirrors the data-plane instrumentation that lives outside obs (the
// util buffer pool and copy counter cannot depend on this library) into
// `registry`: pool.{hits,misses}, pool.bytes_in_use{,_hwm} and
// dataplane.bytes_copied. Call before snapshotting/exporting; safe to
// call repeatedly and from multiple threads (counters advance by
// deltas, gauges take the latest value).
void SyncDataPlaneMetrics(Registry& registry = Registry::Default());

}  // namespace mvtee::obs
