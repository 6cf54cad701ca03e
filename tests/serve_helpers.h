// Test helpers that drive a Monitor through its request loop, the
// monitor's only execution path.
#pragma once

#include <future>
#include <vector>

#include "core/monitor.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace mvtee::core {

// Serves `batches` through one fresh session and returns each batch's
// outputs, or the first failure. Starts the request loop if it is not
// running: pipelined runs then get one pipeline slot per batch and no
// batch window, so every batch streams at once. Sequential runs submit
// each batch once the previous one answered; pipelined runs submit all,
// then wait. Counters a stream flushes only when it ends (verdicts that
// land after the last answer) need StopService() before ConsumeStats().
inline util::Result<std::vector<std::vector<tensor::Tensor>>> Serve(
    Monitor& monitor, const std::vector<std::vector<tensor::Tensor>>& batches,
    bool pipelined = false) {
  ServiceConfig config;
  if (pipelined) {
    config.admission_queue_max = batches.size();
    config.scheduler.max_batch = batches.size();
    config.scheduler.batch_window_us = 0;
  }
  MVTEE_RETURN_IF_ERROR(monitor.StartService(config));
  MVTEE_ASSIGN_OR_RETURN(auto session, monitor.OpenSession());
  std::vector<std::future<InferenceResponse>> pending;
  std::vector<std::vector<tensor::Tensor>> outputs;
  for (size_t b = 0; b < batches.size(); ++b) {
    MVTEE_ASSIGN_OR_RETURN(auto future, session->Submit({batches[b]}));
    pending.push_back(std::move(future));
    if (pipelined && b + 1 < batches.size()) continue;
    for (auto& answer : pending) {
      InferenceResponse response = answer.get();
      MVTEE_RETURN_IF_ERROR(response.status);
      outputs.push_back(std::move(response.outputs));
    }
    pending.clear();
  }
  return outputs;
}

// One batch through Serve(): returns that batch's outputs.
inline util::Result<std::vector<tensor::Tensor>> ServeOne(
    Monitor& monitor, const std::vector<tensor::Tensor>& inputs) {
  MVTEE_ASSIGN_OR_RETURN(auto all, Serve(monitor, {inputs}));
  return std::move(all[0]);
}

}  // namespace mvtee::core
