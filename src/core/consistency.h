// Checkpoint consistency checking and cross-process voting (§4.3, §5.2).
//
// Diversified variants produce numerically close but bitwise different
// outputs, so consistency is criteria-based with thresholds: the policy
// selects a metric (cosine similarity / MSE / max-abs-diff / allclose)
// and a tolerance calibrated to variant noise levels. Voting aggregates
// pairwise consistency into an accept/reject decision plus a winner
// whose outputs are replicated downstream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace mvtee::core {

enum class ConsistencyMetric : uint8_t {
  kCosine = 0,     // accept if cosine >= threshold
  kMse,            // accept if MSE <= threshold
  kMaxAbsDiff,     // accept if max |a-b| <= threshold
  kAllClose,       // accept if allclose(rtol, atol)
};

std::string_view ConsistencyMetricName(ConsistencyMetric metric);

struct CheckPolicy {
  ConsistencyMetric metric = ConsistencyMetric::kCosine;
  double threshold = 0.999;  // semantics depend on metric
  double rtol = 1e-3;        // allclose only
  double atol = 1e-4;        // allclose only

  static CheckPolicy Cosine(double min_similarity = 0.999) {
    return {ConsistencyMetric::kCosine, min_similarity, 0, 0};
  }
  static CheckPolicy Mse(double max_mse) {
    return {ConsistencyMetric::kMse, max_mse, 0, 0};
  }
  static CheckPolicy MaxAbs(double max_diff) {
    return {ConsistencyMetric::kMaxAbsDiff, max_diff, 0, 0};
  }
  static CheckPolicy AllClose(double rtol = 1e-3, double atol = 1e-4) {
    return {ConsistencyMetric::kAllClose, 0, rtol, atol};
  }
};

// Counters a caller can aggregate into obs. Every pair check counts
// exactly once.
struct CheckStats {
  // Pairs decided without the metric scan: a shape mismatch, a
  // non-finite value, or byte-identical payloads.
  uint64_t prefilter_hits = 0;
  // Pairs where the configured metric scanned at least one tensor.
  uint64_t full_checks = 0;
};

// Single-pair check over full output lists. Per tensor: shapes must
// match; a NaN or infinity on either side is inconsistent (even when
// both sides hold the same bytes); byte-identical payloads are
// consistent under every metric; anything else runs the metric. The
// equality shortcut compares the bytes themselves, never a summary a
// variant could forge.
bool OutputsConsistent(const std::vector<tensor::Tensor>& a,
                       const std::vector<tensor::Tensor>& b,
                       const CheckPolicy& policy,
                       CheckStats* stats = nullptr);

enum class VotePolicy : uint8_t {
  kUnanimous = 0,  // all live variants must agree (security-first default)
  kMajority,       // > half must agree; winner from the largest bloc
};

struct VoteResult {
  bool accepted = false;
  // Index (into the outputs vector) whose value should be replicated
  // downstream; -1 if rejected.
  int winner = -1;
  // Variants outside the largest bloc when it holds a strict majority
  // (crashed, non-finite or inconsistent); every variant when no bloc
  // does.
  std::vector<int> dissenters;
};

// `outputs[i]` empty => variant i failed (crash / refused input); a
// failed variant and a non-finite output always dissent. A finite panel
// of one trivially accepts. Each list's non-finite flag is computed
// once, not once per pair.
VoteResult Vote(const std::vector<std::vector<tensor::Tensor>>& outputs,
                const CheckPolicy& policy, VotePolicy vote_policy,
                CheckStats* stats = nullptr);

// The largest consistent bloc among healthy outputs (the async quorum
// scan, Fig. 8): every output is tried as the representative, ties keep
// the earliest. A non-finite output joins no bloc, not even its own.
struct Bloc {
  size_t representative = 0;
  std::vector<char> members;  // members[i] != 0: outputs[i] joined
  size_t size = 0;            // 0 = no bloc formed (members empty)
};
Bloc LargestBloc(
    const std::vector<const std::vector<tensor::Tensor>*>& outputs,
    const CheckPolicy& policy, CheckStats* stats = nullptr);

}  // namespace mvtee::core
