#include "core/consistency.h"

#include <cstring>
#include <utility>

namespace mvtee::core {

using tensor::Tensor;

std::string_view ConsistencyMetricName(ConsistencyMetric metric) {
  switch (metric) {
    case ConsistencyMetric::kCosine: return "cosine";
    case ConsistencyMetric::kMse: return "mse";
    case ConsistencyMetric::kMaxAbsDiff: return "max-abs-diff";
    case ConsistencyMetric::kAllClose: return "allclose";
  }
  return "unknown";
}

namespace {

bool AnyNonFinite(const std::vector<Tensor>& outputs) {
  for (const Tensor& t : outputs) {
    if (tensor::HasNonFinite(t)) return true;
  }
  return false;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  const size_t bytes = a.byte_size();
  return bytes == b.byte_size() &&
         (bytes == 0 || std::memcmp(a.data(), b.data(), bytes) == 0);
}

bool MetricAccepts(const Tensor& a, const Tensor& b,
                   const CheckPolicy& policy) {
  switch (policy.metric) {
    case ConsistencyMetric::kCosine:
      return tensor::CosineSimilarity(a, b) >= policy.threshold;
    case ConsistencyMetric::kMse:
      return tensor::MeanSquaredError(a, b) <= policy.threshold;
    case ConsistencyMetric::kMaxAbsDiff:
      return tensor::MaxAbsDiff(a, b) <= policy.threshold;
    case ConsistencyMetric::kAllClose:
      return tensor::AllClose(a, b, policy.rtol, policy.atol);
  }
  return false;
}

// The pair check with each side's non-finite flag already known.
bool Consistent(const std::vector<Tensor>& a, bool a_nonfinite,
                const std::vector<Tensor>& b, bool b_nonfinite,
                const CheckPolicy& policy, CheckStats* stats) {
  bool consistent = a.size() == b.size() && !a_nonfinite && !b_nonfinite;
  for (size_t i = 0; consistent && i < a.size(); ++i) {
    consistent = a[i].shape() == b[i].shape();
  }
  bool scanned = false;
  for (size_t i = 0; consistent && i < a.size(); ++i) {
    if (SameBytes(a[i], b[i])) continue;
    scanned = true;
    consistent = MetricAccepts(a[i], b[i], policy);
  }
  if (stats) (scanned ? stats->full_checks : stats->prefilter_hits) += 1;
  return consistent;
}

}  // namespace

bool OutputsConsistent(const std::vector<Tensor>& a,
                       const std::vector<Tensor>& b, const CheckPolicy& policy,
                       CheckStats* stats) {
  return Consistent(a, AnyNonFinite(a), b, AnyNonFinite(b), policy, stats);
}

VoteResult Vote(const std::vector<std::vector<Tensor>>& outputs,
                const CheckPolicy& policy, VotePolicy vote_policy,
                CheckStats* stats) {
  const size_t n = outputs.size();
  VoteResult result;
  if (n == 0) return result;
  std::vector<char> nonfinite(n);
  for (size_t i = 0; i < n; ++i) nonfinite[i] = AnyNonFinite(outputs[i]);

  // Cluster by consistency with a bloc representative (greedy; adequate
  // because equivalence is near-transitive under calibrated thresholds).
  std::vector<int> bloc_of(n, -1);
  std::vector<size_t> representatives;
  for (size_t i = 0; i < n; ++i) {
    // A failed variant or a non-finite output joins no bloc: it agrees
    // with nothing, not even an identical list.
    if (outputs[i].empty() || nonfinite[i]) continue;
    for (size_t b = 0; b < representatives.size(); ++b) {
      const size_t rep = representatives[b];
      if (Consistent(outputs[i], nonfinite[i], outputs[rep], nonfinite[rep],
                     policy, stats)) {
        bloc_of[i] = static_cast<int>(b);
        break;
      }
    }
    if (bloc_of[i] == -1) {
      bloc_of[i] = static_cast<int>(representatives.size());
      representatives.push_back(i);
    }
  }

  std::vector<size_t> bloc_size(representatives.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    if (bloc_of[i] >= 0) bloc_size[static_cast<size_t>(bloc_of[i])]++;
  }
  int best_bloc = -1;
  size_t best_size = 0;
  for (size_t b = 0; b < bloc_size.size(); ++b) {
    if (bloc_size[b] > best_size) {
      best_size = bloc_size[b];
      best_bloc = static_cast<int>(b);
    }
  }

  // Only a strict majority bloc vouches for its members; without one,
  // every member dissents (a tie names no honest side).
  const bool majority = best_size * 2 > n;
  result.accepted = vote_policy == VotePolicy::kUnanimous
                        ? (best_size == n && representatives.size() == 1)
                        : majority;
  result.winner =
      result.accepted
          ? static_cast<int>(representatives[static_cast<size_t>(best_bloc)])
          : -1;
  for (size_t i = 0; i < n; ++i) {
    if (!majority || bloc_of[i] != best_bloc) {
      result.dissenters.push_back(static_cast<int>(i));
    }
  }
  return result;
}

Bloc LargestBloc(const std::vector<const std::vector<Tensor>*>& outputs,
                 const CheckPolicy& policy, CheckStats* stats) {
  const size_t n = outputs.size();
  std::vector<char> nonfinite(n);
  for (size_t i = 0; i < n; ++i) nonfinite[i] = AnyNonFinite(*outputs[i]);
  Bloc best;
  for (size_t rep = 0; rep < n; ++rep) {
    Bloc bloc{rep, std::vector<char>(n, 0), 0};
    for (size_t o = 0; o < n; ++o) {
      if (Consistent(*outputs[o], nonfinite[o], *outputs[rep], nonfinite[rep],
                     policy, stats)) {
        bloc.members[o] = 1;
        ++bloc.size;
      }
    }
    if (bloc.size > best.size) best = std::move(bloc);
  }
  return best;
}

}  // namespace mvtee::core
