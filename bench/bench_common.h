// Shared harness for the paper-figure benchmarks.
//
// Every figure bench boots a full MVTEE deployment (offline tool ->
// variant host -> monitor) on a scaled model-zoo model and measures
// throughput (batches/s) and mean end-to-end latency under sequential
// and pipelined execution, normalized against the unprotected original
// model. See DESIGN.md §4 for the experiment index.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "core/offline.h"
#include "core/variant_host.h"
#include "graph/model_zoo.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "transport/channel.h"
#include "util/clock.h"

namespace mvtee::bench {

// Scaled evaluation configuration (see model_zoo.h substitution note).
graph::ZooConfig BenchZooConfig();

// Deterministic input batches for a model.
std::vector<std::vector<tensor::Tensor>> MakeBatches(
    const graph::Graph& model, int count, uint64_t seed);

struct Outcome {
  double throughput = 0.0;       // batches / second
  double mean_latency_ms = 0.0;  // per batch, end to end
  core::RunStats stats;
};

// Original (unprotected) model on a single optimized executor.
Outcome RunBaseline(const graph::Graph& model,
                    const std::vector<std::vector<tensor::Tensor>>& batches);

struct MvteeSetup {
  int partitions = 5;
  // Active variants per stage (empty = one everywhere).
  std::vector<int> variant_counts;
  // Explicit per-stage variant ids (overrides variant_counts when set).
  std::vector<std::vector<std::string>> explicit_selection;
  core::MonitorConfig monitor;
  core::VariantHost::Options host;
  variant::PoolConfig pool;  // replicated=true for fundamental-perf runs
  uint64_t seed = 1;
};

// Offline phase (partition + pool + keys + encrypted store). Reuse the
// bundle across seq/pipe runs of the same configuration.
util::Result<core::OfflineBundle> BuildBenchBundle(const graph::Graph& model,
                                                   const MvteeSetup& setup);

// Boots a deployment from the bundle, runs the batches, tears down.
util::Result<Outcome> RunMvtee(
    const core::OfflineBundle& bundle, const MvteeSetup& setup,
    const std::vector<std::vector<tensor::Tensor>>& batches, bool pipelined);

// Default fundamental-performance setup: replicated ORT-like variants,
// encrypted channels, direct fast path, 10GbE-like cost model.
MvteeSetup FundamentalSetup(int partitions, uint64_t seed = 1);

// Current cumulative snapshot of the default metrics registry; pass it
// back to DumpMetricsJson as `base` to dump only what one run added.
obs::RegistrySnapshot MetricsBaseline();

// Dumps the default metrics registry (optionally as a delta since
// `base`) as labeled JSON: to the file named by $MVTEE_METRICS_JSON
// (appending one {"label", "metrics"} object per line) when set,
// otherwise to stdout.
void DumpMetricsJson(const std::string& label,
                     const obs::RegistrySnapshot* base = nullptr);

// Printing helpers.
void PrintFigureHeader(const std::string& figure,
                       const std::string& description);
void PrintRule();

// Exit code of a figure bench: 0 when every row ran, else 1 with the
// count on stderr, so a broken run fails CI instead of printing zeros.
int ExitCode(int failed_rows);

inline double Norm(double value, double baseline) {
  return baseline > 0 ? value / baseline : 0.0;
}

}  // namespace mvtee::bench
