// Evented-monitor micro-benchmark: the blocking event loop and the
// exact checkpoint vote on replicated vs diversified 3-variant panels.
//
// Two runs of the same pipelined deployment, one per pool. Replicated
// panels produce byte-identical outputs, so every pairwise check is
// decided by comparing bytes (hits) and none runs the metric (full).
// Diversified panels differ in the last bits, so every pair runs the
// metric; the verify-time column shows what that scan costs. The wait
// column shows the loop blocking on the transport WaitSet. Exits
// non-zero if the replicated row has any full check or no hit: those
// are exact counts, not timings.
#include "bench/bench_common.h"

namespace mvtee::bench {
namespace {

double HistSum(const obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

uint64_t HistCount(const obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.count;
}

uint64_t CounterOf(const obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

int Main() {
  PrintFigureHeader("Evented monitor",
                    "Blocking WaitSet loop + exact vote on replicated vs "
                    "diversified k=3 panels (pipelined)");

  const int kBatches = 12;
  graph::Graph model =
      graph::BuildModel(graph::ModelKind::kResNet50, BenchZooConfig());
  auto batches = MakeBatches(model, kBatches, 23);

  MvteeSetup setup;
  setup.partitions = 4;
  setup.seed = 23;
  setup.pool.variants_per_stage = 3;
  setup.pool.verify = false;
  setup.variant_counts = {3, 3, 3, 3};
  setup.monitor.check = core::CheckPolicy::Cosine(0.99);
  setup.monitor.vote = core::VotePolicy::kMajority;
  setup.monitor.reaction = core::ReactionPolicy::ContinueWithWinner();
  setup.host.network = transport::NetworkCostModel::TenGbE();

  std::printf("%-11s | %8s %8s | %10s %10s | %10s %6s | %9s %6s\n", "pool",
              "tput b/s", "lat ms", "verify ms", "jobs", "wait ms", "waits",
              "hits", "full");
  PrintRule();

  int failed = 0;
  for (bool replicated : {true, false}) {
    const char* pool = replicated ? "replicated" : "diversified";
    setup.pool.replicated = replicated;
    auto bundle = BuildBenchBundle(model, setup);
    if (!bundle.ok()) {
      std::printf("%-11s | offline failed: %s\n", pool,
                  bundle.status().ToString().c_str());
      ++failed;
      continue;
    }
    auto base = MetricsBaseline();
    auto out = RunMvtee(*bundle, setup, batches, /*pipelined=*/true);
    if (!out.ok()) {
      std::printf("%-11s | run failed: %s\n", pool,
                  out.status().ToString().c_str());
      ++failed;
      continue;
    }
    auto delta = obs::Registry::Default().Snapshot().DeltaSince(base);
    const uint64_t hits = CounterOf(delta, "monitor.prefilter_hits");
    const uint64_t full = CounterOf(delta, "monitor.full_checks");
    std::printf("%-11s | %8.1f %8.2f | %10.2f %10llu | %10.2f %6llu | "
                "%9llu %6llu\n",
                pool, out->throughput, out->mean_latency_ms,
                HistSum(delta, "monitor.verify_job_us") / 1000.0,
                static_cast<unsigned long long>(
                    HistCount(delta, "monitor.verify_job_us")),
                HistSum(delta, "monitor.wait_us") / 1000.0,
                static_cast<unsigned long long>(
                    HistCount(delta, "monitor.wait_us")),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(full));
    DumpMetricsJson(std::string("evented_monitor/") + pool, &base);
    if (replicated && (full != 0 || hits == 0)) {
      std::printf("%-11s | FAIL: byte-identical panels must be decided "
                  "without the metric scan\n", pool);
      ++failed;
    }
  }
  PrintRule();
  return ExitCode(failed);
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
