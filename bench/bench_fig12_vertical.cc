// Figure 12: vertical variant scaling under selective MVX.
//
// 5-partition setup, 3 replicated variants on each MVX-enabled stage:
//  - 1-MVX: the 3rd partition only;
//  - 3-MVX: the 3rd, 4th and 5th partitions;
//  - 5-MVX: every partition (full MVX).
//
// Paper shape: sequential throughput >= 0.4x and latency <= 2.5x for 1-
// and 3-MVX; full 5-MVX drops to ~0.3x / >3x. Pipelined 1- and 3-MVX
// generally beat the original model; full-MVX pipelining stalls on early
// synchronization (0.2x-1.0x throughput).
#include "bench/bench_common.h"

namespace mvtee::bench {
namespace {

int Main() {
  PrintFigureHeader("Figure 12",
                    "Vertical variant scaling (3 variants per MVX stage)");
  std::printf("%-16s %4s | %9s %9s %9s | %9s %9s %9s\n", "model", "mode",
              "1mvx tput", "3mvx tput", "5mvx tput", "1mvx lat", "3mvx lat",
              "5mvx lat");
  PrintRule();

  const int kBatches = 12;
  int failed = 0;
  const std::vector<std::vector<int>> configs = {
      {1, 1, 3, 1, 1},  // 1-MVX (3rd partition)
      {1, 1, 3, 3, 3},  // 3-MVX (3rd..5th)
      {3, 3, 3, 3, 3},  // 5-MVX (full)
  };

  for (auto kind : graph::AllModels()) {
    graph::Graph model = graph::BuildModel(kind, BenchZooConfig());
    auto batches = MakeBatches(model, kBatches, 13);
    Outcome base = RunBaseline(model, batches);

    MvteeSetup setup = FundamentalSetup(5);
    setup.pool.variants_per_stage = 3;
    auto bundle = BuildBenchBundle(model, setup);
    if (!bundle.ok()) {
      std::printf("%-16s offline failed: %s\n",
                  std::string(graph::ModelName(kind)).c_str(),
                  bundle.status().ToString().c_str());
      ++failed;
      continue;
    }

    for (bool pipelined : {false, true}) {
      double tput[3] = {0, 0, 0}, lat[3] = {0, 0, 0};
      for (size_t i = 0; i < configs.size(); ++i) {
        MvteeSetup cfg = setup;
        cfg.variant_counts = configs[i];
        auto out = RunMvtee(*bundle, cfg, batches, pipelined);
        if (out.ok()) {
          tput[i] = Norm(out->throughput, base.throughput);
          lat[i] = Norm(out->mean_latency_ms, base.mean_latency_ms);
        } else {
          std::fprintf(stderr, "%s: run failed: %s\n",
                       std::string(graph::ModelName(kind)).c_str(),
                       out.status().ToString().c_str());
          ++failed;
        }
      }
      std::printf(
          "%-16s %4s | %8.2fx %8.2fx %8.2fx | %8.2fx %8.2fx %8.2fx\n",
          std::string(graph::ModelName(kind)).c_str(),
          pipelined ? "pipe" : "seq", tput[0], tput[1], tput[2], lat[0],
          lat[1], lat[2]);
    }
  }
  PrintRule();
  std::printf(
      "paper: seq >=0.4x tput for 1-/3-MVX, ~0.3x for full MVX; pipelined\n"
      "1-/3-MVX generally beat the original; full MVX stalls pipelines.\n");
  return ExitCode(failed);
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
