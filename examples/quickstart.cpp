// Quickstart: protect a model with MVTEE in ~60 lines.
//
//   1. Build (or load) a model graph.
//   2. Run the offline MVX tool: partition, diversify, encrypt.
//   3. Boot the platform: simulated CPU, variant host, monitor TEE.
//   4. Initialize — attestation, key distribution, two-stage bootstrap.
//   5. Open a session against the monitor's request loop and submit.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/monitor.h"
#include "core/offline.h"
#include "core/variant_host.h"
#include "graph/model_zoo.h"

using namespace mvtee;

int main() {
  // 1. A ResNet-50-style model with deterministic synthetic weights.
  graph::ZooConfig zoo;
  zoo.input_hw = 32;
  graph::Graph model = graph::BuildModel(graph::ModelKind::kResNet50, zoo);
  std::printf("model: resnet-50, %lld nodes, %.1f KB parameters\n",
              static_cast<long long>(model.num_nodes()),
              model.ParameterBytes() / 1024.0);

  // 2. Offline tool: 5 random-balanced partitions, 3 diversified
  //    variants per partition, everything sealed into encrypted storage.
  core::OfflineOptions offline;
  offline.num_partitions = 5;
  offline.pool.variants_per_stage = 3;
  auto bundle = core::RunOfflineTool(model, offline);
  if (!bundle.ok()) {
    std::printf("offline tool failed: %s\n",
                bundle.status().ToString().c_str());
    return 1;
  }
  std::printf("offline: %lld stages, %zu variants, %zu encrypted files\n",
              static_cast<long long>(bundle->num_stages),
              bundle->variants.size(), bundle->store->size());

  // 3. Platform: a simulated CPU package and the untrusted host that
  //    places variant TEEs.
  tee::SimulatedCpu cpu;
  core::VariantHost host(&cpu, bundle->store);

  // 4. Monitor TEE + attested initialization. MVX on every stage with
  //    3 variants: full protection.
  core::MonitorConfig config;
  config.vote = core::VotePolicy::kUnanimous;
  auto monitor = core::Monitor::Create(&cpu, config);
  if (!monitor.ok()) return 1;
  auto status = (*monitor)->Initialize(
      *bundle, core::MvxSelection::Uniform(*bundle, 3), host);
  if (!status.ok()) {
    std::printf("initialization failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("initialized: %zu attested variant bindings\n",
              (*monitor)->bindings().size());

  // 5. Protected inference through the long-lived request API: start
  //    the request loop, open a session, submit one request and wait on
  //    its future.
  util::Rng rng(1);
  auto input = tensor::Tensor::RandomUniform(
      tensor::Shape({1, 3, zoo.input_hw, zoo.input_hw}), rng);
  if (!(*monitor)->StartService().ok()) return 1;
  auto session = (*monitor)->OpenSession();
  if (!session.ok()) return 1;
  auto pending = (*session)->Submit({{input}});
  if (!pending.ok()) {
    std::printf("submit rejected: %s\n",
                pending.status().ToString().c_str());
    return 1;
  }
  core::InferenceResponse response = pending->get();
  if (!response.status.ok()) {
    std::printf("inference failed: %s\n",
                response.status.ToString().c_str());
    return 1;
  }

  // Top-1 class of the (softmax) output.
  const tensor::Tensor& probs = response.outputs[0];
  int64_t best = 0;
  for (int64_t i = 1; i < probs.num_elements(); ++i) {
    if (probs.at(i) > probs.at(best)) best = i;
  }
  std::printf(
      "inference OK: top-1 class %lld (p=%.4f), %llu checkpoints verified, "
      "served in %lld us\n",
      static_cast<long long>(best), probs.at(best),
      static_cast<unsigned long long>(
          (*monitor)->ConsumeStats().checkpoints_evaluated),
      static_cast<long long>(response.latency_us));

  (void)(*monitor)->Shutdown();
  host.JoinAll();
  return 0;
}
