// Ablations of MVTEE's design choices (DESIGN.md §5):
//
//  A. Random-BALANCED contraction vs unbiased random contraction:
//     partition cost imbalance and its effect on pipelined throughput
//     (the pipeline drains at the rate of its slowest stage).
//  B. Direct fast-path routing (variant->variant pipes) vs monitor-
//     mediated forwarding: the cost of hauling every boundary tensor
//     through the monitor.
//  C. Consistency metric choice: virtual checkpoint cost of cosine vs
//     MSE vs max-abs vs allclose on a 3-variant panel.
#include "bench/bench_common.h"
#include "partition/partition.h"

namespace mvtee::bench {
namespace {

// Each ablation returns its number of failed rows.
int AblationPartitionBalance() {
  PrintFigureHeader("Ablation A",
                    "Balanced vs unbiased random contraction (5 "
                    "partitions, pipelined)");
  std::printf("%-16s | %10s %10s | %10s %10s\n", "model", "bal imbal",
              "uni imbal", "bal tput", "uni tput");
  PrintRule();
  int failed = 0;
  for (auto kind :
       {graph::ModelKind::kResNet50, graph::ModelKind::kGoogleNet,
        graph::ModelKind::kMobileNetV3}) {
    graph::Graph model = graph::BuildModel(kind, BenchZooConfig());

    double imbalance[2] = {0, 0}, tput[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      // mode 0: balanced default; mode 1: uniform weights, no cost cap.
      // The partition set is computed explicitly to read its imbalance.
      partition::PartitionOptions popts;
      popts.target_partitions = 5;
      popts.seed = 37;
      if (mode == 1) {
        popts.weight_fn = [](double, double, double) { return 1.0; };
        popts.max_cost_fraction = 1.0;
      }
      auto set = partition::RandomContraction(model, popts);
      if (!set.ok()) {
        ++failed;
        continue;
      }
      imbalance[mode] = set->CostImbalance();

      // Offline tool only supports random contraction; approximate the
      // ablation by measuring the critical-stage share analytically:
      // pipeline throughput ~ 1 / max stage cost.
      double total = 0, max_cost = 0;
      for (const auto& p : set->partitions) {
        total += p.cost;
        max_cost = std::max(max_cost, p.cost);
      }
      // Normalized pipeline rate: total/(5*max) = 1/imbalance.
      tput[mode] = total / (5.0 * max_cost);
    }
    std::printf("%-16s | %9.2fx %9.2fx | %9.2f %9.2f\n",
                std::string(graph::ModelName(kind)).c_str(), imbalance[0],
                imbalance[1], tput[0], tput[1]);
  }
  PrintRule();
  std::printf(
      "imbalance = max stage cost / mean (1.0 = perfect); tput = relative\n"
      "pipeline drain rate (1/imbalance). Balanced contraction keeps the\n"
      "pipeline bottleneck near the mean; unbiased contraction does not.\n");
  return failed;
}

int AblationDirectFastPath() {
  PrintFigureHeader("Ablation B",
                    "Direct fast-path pipes vs monitor-mediated "
                    "forwarding (5 partitions, 1 variant/stage)");
  std::printf("%-16s %4s | %10s %10s %8s\n", "model", "mode", "direct b/s",
              "mediated", "cost");
  PrintRule();
  const int kBatches = 12;
  int failed = 0;
  for (auto kind :
       {graph::ModelKind::kResNet50, graph::ModelKind::kEfficientNetB7,
        graph::ModelKind::kMnasNet}) {
    graph::Graph model = graph::BuildModel(kind, BenchZooConfig());
    auto batches = MakeBatches(model, kBatches, 39);

    MvteeSetup direct = FundamentalSetup(5, 39);
    MvteeSetup mediated = FundamentalSetup(5, 39);
    mediated.monitor.direct_fastpath = false;
    auto bundle = BuildBenchBundle(model, direct);
    if (!bundle.ok()) {
      std::printf("%-16s offline failed: %s\n",
                  std::string(graph::ModelName(kind)).c_str(),
                  bundle.status().ToString().c_str());
      ++failed;
      continue;
    }

    for (bool pipelined : {false, true}) {
      auto d = RunMvtee(*bundle, direct, batches, pipelined);
      auto m = RunMvtee(*bundle, mediated, batches, pipelined);
      if (!d.ok() || !m.ok()) {
        std::printf("%-16s %4s | run failed: %s\n",
                    std::string(graph::ModelName(kind)).c_str(),
                    pipelined ? "pipe" : "seq",
                    (!d.ok() ? d.status() : m.status()).ToString().c_str());
        ++failed;
        continue;
      }
      std::printf("%-16s %4s | %10.1f %10.1f %7.1f%%\n",
                  std::string(graph::ModelName(kind)).c_str(),
                  pipelined ? "pipe" : "seq", d->throughput, m->throughput,
                  (1.0 - m->throughput / d->throughput) * 100);
    }
  }
  PrintRule();
  std::printf(
      "cost = throughput lost when all boundary tensors detour through "
      "the monitor.\n");
  return failed;
}

int AblationCheckMetric() {
  PrintFigureHeader("Ablation C",
                    "Consistency metric cost (3-variant panel, 5 "
                    "partitions, all-MVX, sequential)");
  std::printf("%-12s | %10s %12s\n", "metric", "tput b/s", "checkpoints");
  PrintRule();
  graph::Graph model =
      graph::BuildModel(graph::ModelKind::kResNet50, BenchZooConfig());
  auto batches = MakeBatches(model, 10, 41);
  MvteeSetup setup = FundamentalSetup(5, 41);
  setup.pool.variants_per_stage = 3;
  setup.variant_counts = {3, 3, 3, 3, 3};
  auto bundle = BuildBenchBundle(model, setup);
  if (!bundle.ok()) {
    std::printf("offline failed: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  int failed = 0;

  struct M {
    const char* name;
    core::CheckPolicy policy;
  };
  const M metrics[] = {
      {"cosine", core::CheckPolicy::Cosine(0.99)},
      {"mse", core::CheckPolicy::Mse(1e-3)},
      {"max-abs", core::CheckPolicy::MaxAbs(0.5)},
      {"allclose", core::CheckPolicy::AllClose(1e-2, 1e-3)},
  };
  for (const M& m : metrics) {
    MvteeSetup cfg = setup;
    cfg.monitor.check = m.policy;
    auto out = RunMvtee(*bundle, cfg, batches, false);
    if (!out.ok()) {
      std::printf("%-12s | failed: %s\n", m.name,
                  out.status().ToString().c_str());
      ++failed;
      continue;
    }
    std::printf("%-12s | %10.1f %12llu\n", m.name, out->throughput,
                static_cast<unsigned long long>(
                    out->stats.checkpoints_evaluated));
  }
  PrintRule();
  std::printf(
      "verification compute is minor next to transfers — consistent with "
      "the paper's\nobservation that \"verification computation typically "
      "completes quickly\".\n");
  return failed;
}

int Main() {
  const int failed = AblationPartitionBalance() + AblationDirectFastPath() +
                     AblationCheckMetric();
  return ExitCode(failed);
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
