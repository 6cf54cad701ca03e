// Figure 13: asynchronous cross-validation vs synchronous execution.
//
// 5-partition setup with MVX on the 2nd and 3rd partitions, 3 diversified
// variants each — one of them a deliberately slow, heavily diversified
// TVM-style variant (the lagging panel member). Async mode proceeds at
// majority consensus and validates the straggler late (Fig. 8).
//
// Paper shape: async beats sync by 5.2%-34.2% throughput sequentially and
// 3.1%-17.8% pipelined, with corresponding latency reductions.
#include "bench/bench_common.h"

namespace mvtee::bench {
namespace {

MvteeSetup RealSetup(uint64_t seed) {
  MvteeSetup setup;
  setup.partitions = 5;
  setup.seed = seed;
  setup.pool.replicated = false;  // multi-level diversification
  setup.pool.variants_per_stage = 2;
  setup.pool.include_slow_variant = true;  // appended as v2 per stage
  setup.pool.slow_variant_factor = 3.0;
  setup.pool.verify = false;
  setup.monitor.direct_fastpath = true;
  setup.monitor.check = core::CheckPolicy::Cosine(0.99);
  setup.monitor.vote = core::VotePolicy::kMajority;
  setup.monitor.reaction = core::ReactionPolicy::ContinueWithWinner();
  setup.host.network = transport::NetworkCostModel::TenGbE();
  // MVX (with the slow variant) on the 2nd and 3rd partitions.
  setup.variant_counts = {1, 3, 3, 1, 1};
  return setup;
}

int Main() {
  PrintFigureHeader("Figure 13",
                    "Async cross-validation vs sync (slow TVM variant in "
                    "the 2nd/3rd-partition panels)");
  std::printf("%-16s %4s | %10s %10s %8s | %10s %10s %8s\n", "model", "mode",
              "sync b/s", "async b/s", "tput +%", "sync ms", "async ms",
              "lat -%");
  PrintRule();

  const int kBatches = 12;
  int failed = 0;
  for (auto kind : graph::AllModels()) {
    graph::Graph model = graph::BuildModel(kind, BenchZooConfig());
    auto batches = MakeBatches(model, kBatches, 17);

    MvteeSetup setup = RealSetup(17);
    auto bundle = BuildBenchBundle(model, setup);
    if (!bundle.ok()) {
      std::printf("%-16s offline failed: %s\n",
                  std::string(graph::ModelName(kind)).c_str(),
                  bundle.status().ToString().c_str());
      ++failed;
      continue;
    }

    for (bool pipelined : {false, true}) {
      MvteeSetup sync_setup = setup;
      sync_setup.monitor.mode = core::ExecMode::kSync;
      MvteeSetup async_setup = setup;
      async_setup.monitor.mode = core::ExecMode::kAsync;

      auto sync_out = RunMvtee(*bundle, sync_setup, batches, pipelined);
      auto async_out = RunMvtee(*bundle, async_setup, batches, pipelined);
      if (!sync_out.ok() || !async_out.ok()) {
        std::printf("%-16s %4s | run failed (%s)\n",
                    std::string(graph::ModelName(kind)).c_str(),
                    pipelined ? "pipe" : "seq",
                    (!sync_out.ok() ? sync_out.status() : async_out.status())
                        .ToString()
                        .c_str());
        ++failed;
        continue;
      }
      const double tput_gain =
          (async_out->throughput / sync_out->throughput - 1.0) * 100;
      const double lat_gain =
          (1.0 - async_out->mean_latency_ms / sync_out->mean_latency_ms) *
          100;
      std::printf(
          "%-16s %4s | %10.1f %10.1f %+7.1f%% | %10.2f %10.2f %+7.1f%%\n",
          std::string(graph::ModelName(kind)).c_str(),
          pipelined ? "pipe" : "seq", sync_out->throughput,
          async_out->throughput, tput_gain, sync_out->mean_latency_ms,
          async_out->mean_latency_ms, lat_gain);
    }
  }
  PrintRule();
  std::printf(
      "paper: async gains 5.2%%-34.2%% tput (seq), 3.1%%-17.8%% (pipe);\n"
      "latency -5%%..-25.6%% (seq), -3.1%%..-15.2%% (pipe).\n");
  return ExitCode(failed);
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
