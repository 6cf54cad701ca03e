// Figure 14: MVTEE performance in a real-world setup.
//
// Multi-level diversified variants (different runtimes / GEMM libraries /
// graph transforms), asynchronous cross-validation, 5 partitions.
// Configurations: 3-variant MVX on one partition (the 3rd) and across
// three partitions (3rd-5th), vs the original unprotected model.
//
// Paper shape: sequential throughput 0.4x-0.8x (1 MVX) and 0.4x-0.6x
// (3 MVX); pipelined execution *gains* 82%-209% throughput with 1 MVX
// partition and roughly doubles (85%-110%) with 3 MVX partitions.
#include "bench/bench_common.h"

namespace mvtee::bench {
namespace {

MvteeSetup RealSetup(uint64_t seed) {
  MvteeSetup setup;
  setup.partitions = 5;
  setup.seed = seed;
  setup.pool.replicated = false;  // ORT/TVM/hardened diversified recipes
  setup.pool.variants_per_stage = 3;
  setup.pool.verify = false;
  setup.monitor.direct_fastpath = true;
  setup.monitor.check = core::CheckPolicy::Cosine(0.99);
  setup.monitor.vote = core::VotePolicy::kMajority;
  setup.monitor.reaction = core::ReactionPolicy::ContinueWithWinner();
  setup.monitor.mode = core::ExecMode::kAsync;
  setup.host.network = transport::NetworkCostModel::TenGbE();
  return setup;
}

int Main() {
  PrintFigureHeader("Figure 14",
                    "Real-world setup: diversified variants, async "
                    "execution, 1 vs 3 MVX partitions");
  std::printf("%-16s %4s | %10s %10s | %10s %10s\n", "model", "mode",
              "1mvx tput", "3mvx tput", "1mvx lat", "3mvx lat");
  std::printf("%-16s %4s | %21s | %21s\n", "", "", "(x original)",
              "(x original)");
  PrintRule();

  const int kBatches = 12;
  int failed = 0;
  for (auto kind : graph::AllModels()) {
    graph::Graph model = graph::BuildModel(kind, BenchZooConfig());
    auto batches = MakeBatches(model, kBatches, 19);
    Outcome base = RunBaseline(model, batches);

    MvteeSetup setup = RealSetup(19);
    auto bundle = BuildBenchBundle(model, setup);
    if (!bundle.ok()) {
      std::printf("%-16s offline failed: %s\n",
                  std::string(graph::ModelName(kind)).c_str(),
                  bundle.status().ToString().c_str());
      ++failed;
      continue;
    }

    for (bool pipelined : {false, true}) {
      double tput[2] = {0, 0}, lat[2] = {0, 0};
      int i = 0;
      for (const auto& counts :
           std::vector<std::vector<int>>{{1, 1, 3, 1, 1}, {1, 1, 3, 3, 3}}) {
        MvteeSetup cfg = setup;
        cfg.variant_counts = counts;
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
      std::printf("%-16s %4s | %9.2fx %9.2fx | %9.2fx %9.2fx\n",
                  std::string(graph::ModelName(kind)).c_str(),
                  pipelined ? "pipe" : "seq", tput[0], tput[1], lat[0],
                  lat[1]);
    }
  }
  PrintRule();
  std::printf(
      "paper: seq tput 0.4x-0.8x (1 MVX), 0.4x-0.6x (3 MVX); pipelined\n"
      "1.8x-3.1x (1 MVX) and 1.9x-2.1x (3 MVX) of the original model.\n");
  return ExitCode(failed);
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
