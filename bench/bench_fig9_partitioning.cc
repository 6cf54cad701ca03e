// Figure 9: performance impact of random-balanced partitioning.
//
// Full fast path (single replicated variant per partition), encrypted
// channels, direct variant-to-variant forwarding; partition counts are
// swept and both sequential and pipelined execution are normalized
// against the original (unpartitioned, unprotected) model.
//
// Paper shape to reproduce: sequential throughput degrades as partitions
// increase (-1.7%..-62.2%; latency +1.7%..+164.3%), while pipelined
// execution exceeds the baseline (1.7x..5.4x throughput; latency
// -63.4%..-84.4%) and improves with more partitions.
#include "bench/bench_common.h"

namespace mvtee::bench {
namespace {

int Main() {
  PrintFigureHeader("Figure 9",
                    "Performance impact of random-balanced partitioning "
                    "(full fast path)");
  std::printf("%-16s %5s | %9s %9s | %9s %9s\n", "model", "parts",
              "seq tput", "seq lat", "pipe tput", "pipe lat");
  std::printf("%-16s %5s | %9s %9s | %9s %9s\n", "", "",
              "(x base)", "(x base)", "(x base)", "(x base)");
  PrintRule();

  const int kBatches = 12;
  int failed = 0;
  double seq_tput_min = 1e9, seq_tput_max = 0;
  double pipe_tput_min = 1e9, pipe_tput_max = 0;
  double pipe_lat_min = 1e9, pipe_lat_max = 0;

  for (auto kind : graph::AllModels()) {
    graph::Graph model = graph::BuildModel(kind, BenchZooConfig());
    auto batches = MakeBatches(model, kBatches, 7);
    Outcome base = RunBaseline(model, batches);

    for (int parts : {3, 5, 7}) {
      MvteeSetup setup = FundamentalSetup(parts);
      auto bundle = BuildBenchBundle(model, setup);
      if (!bundle.ok()) {
        std::printf("%-16s %5d | offline failed: %s\n",
                    std::string(graph::ModelName(kind)).c_str(), parts,
                    bundle.status().ToString().c_str());
        ++failed;
        continue;
      }
      auto seq = RunMvtee(*bundle, setup, batches, /*pipelined=*/false);
      auto pipe = RunMvtee(*bundle, setup, batches, /*pipelined=*/true);
      if (!seq.ok() || !pipe.ok()) {
        std::printf("%-16s %5d | run failed\n",
                    std::string(graph::ModelName(kind)).c_str(), parts);
        ++failed;
        continue;
      }
      const double st = Norm(seq->throughput, base.throughput);
      const double sl = Norm(seq->mean_latency_ms, base.mean_latency_ms);
      const double pt = Norm(pipe->throughput, base.throughput);
      const double pl = Norm(pipe->mean_latency_ms, base.mean_latency_ms);
      std::printf("%-16s %5d | %8.2fx %8.2fx | %8.2fx %8.2fx\n",
                  std::string(graph::ModelName(kind)).c_str(), parts, st, sl,
                  pt, pl);
      seq_tput_min = std::min(seq_tput_min, st);
      seq_tput_max = std::max(seq_tput_max, st);
      pipe_tput_min = std::min(pipe_tput_min, pt);
      pipe_tput_max = std::max(pipe_tput_max, pt);
      pipe_lat_min = std::min(pipe_lat_min, pl);
      pipe_lat_max = std::max(pipe_lat_max, pl);
    }
  }
  PrintRule();
  std::printf(
      "summary: sequential throughput %.2fx..%.2fx of baseline "
      "(paper: 0.38x..0.98x)\n",
      seq_tput_min, seq_tput_max);
  std::printf(
      "         pipelined throughput %.2fx..%.2fx of baseline "
      "(paper: 1.7x..5.4x)\n",
      pipe_tput_min, pipe_tput_max);
  std::printf(
      "         pipelined latency %.2fx..%.2fx of baseline "
      "(paper: 0.16x..0.37x)\n",
      pipe_lat_min, pipe_lat_max);
  return ExitCode(failed);
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
