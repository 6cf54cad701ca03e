// Figure 11: horizontal variant scaling under selective MVX.
//
// 5-partition setup; MVX activated on the 3rd partition with 1, 3 or 5
// replicated variants; every other stage stays on the fast path.
//
// Paper shape: in sequential execution, extra variants cost little
// beyond the partitioning overhead; in pipelined execution, the 1->3
// transition (fast path -> slow path at that stage) costs noticeably
// more than 3->5; all pipelined configurations stay well above the
// original model (>= 1.6x throughput, <= 0.7x latency).
#include "bench/bench_common.h"

namespace mvtee::bench {
namespace {

int Main() {
  PrintFigureHeader("Figure 11",
                    "Horizontal variant scaling (MVX on the 3rd of 5 "
                    "partitions)");
  std::printf("%-16s %4s | %9s %9s %9s | %9s %9s %9s\n", "model", "mode",
              "1var tput", "3var tput", "5var tput", "1var lat", "3var lat",
              "5var lat");
  std::printf("%-16s %4s | %31s | %31s\n", "", "", "(x original)",
              "(x original)");
  PrintRule();

  const int kBatches = 12;
  int failed = 0;
  for (auto kind : graph::AllModels()) {
    graph::Graph model = graph::BuildModel(kind, BenchZooConfig());
    auto batches = MakeBatches(model, kBatches, 11);
    Outcome base = RunBaseline(model, batches);

    MvteeSetup setup = FundamentalSetup(5);
    setup.pool.variants_per_stage = 5;
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
      int i = 0;
      for (int vars : {1, 3, 5}) {
        MvteeSetup cfg = setup;
        cfg.variant_counts = {1, 1, vars, 1, 1};
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
        ++i;
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
      "paper: sequential cost of extra variants is negligible next to\n"
      "partitioning; pipelined 1->3 transition (fast->slow path) costs "
      "more than 3->5.\n");
  return ExitCode(failed);
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
