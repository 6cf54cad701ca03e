// Property-based and fuzz-style tests across module boundaries:
// parameterized sweeps over sizes, partition counts and transform
// compositions, plus decoder robustness against truncation/corruption.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "core/consistency.h"
#include "core/messages.h"
#include "crypto/aead.h"
#include "crypto/sha256.h"
#include "graph/builder.h"
#include "graph/model_zoo.h"
#include "partition/partition.h"
#include "runtime/executor.h"
#include "runtime/kernels.h"
#include "runtime/pack_cache.h"
#include "util/cpu_features.h"
#include "tee/enclave.h"
#include "variant/spec.h"

namespace mvtee {
namespace {

using graph::Graph;
using tensor::Shape;
using tensor::Tensor;

// ------------------------------------------------------------ crypto sweep

class GcmSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(GcmSizeSweep, SealOpenRoundTrip) {
  util::Bytes key(32, 0x5a), nonce(12, 0x21);
  util::Rng rng(GetParam() + 1);
  util::Bytes pt(GetParam());
  for (auto& b : pt) b = static_cast<uint8_t>(rng.NextU64());
  crypto::AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, util::ToBytes("aad"), pt);
  EXPECT_EQ(sealed.size(), pt.size() + crypto::kGcmTagSize);
  auto opened = gcm.Open(nonce, util::ToBytes("aad"), sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST_P(GcmSizeSweep, SingleBitFlipAnywhereDetected) {
  if (GetParam() > 4096) GTEST_SKIP() << "bit sweep too slow";
  util::Bytes key(32, 0x5a), nonce(12, 0x22);
  util::Bytes pt(GetParam(), 0x77);
  crypto::AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, {}, pt);
  util::Rng rng(3);
  // Sample up to 32 random byte positions (plus first/last).
  std::vector<size_t> positions = {0, sealed.size() - 1};
  for (int i = 0; i < 32; ++i) {
    positions.push_back(rng.UniformU64(sealed.size()));
  }
  for (size_t pos : positions) {
    auto corrupt = sealed;
    corrupt[pos] ^= static_cast<uint8_t>(1u << rng.UniformU64(8));
    EXPECT_FALSE(gcm.Open(nonce, {}, corrupt).ok()) << "pos " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 33, 255,
                                           256, 1000, 65536));

TEST(Sha256Property, DistinctInputsDistinctDigests) {
  // Sanity over a family of near-identical messages.
  std::set<std::string> digests;
  util::Bytes msg(128, 0);
  for (int i = 0; i < 200; ++i) {
    msg[static_cast<size_t>(i) % msg.size()] ^= 1;
    digests.insert(util::HexEncode(crypto::Sha256Bytes(msg)));
  }
  EXPECT_EQ(digests.size(), 200u);
}

// -------------------------------------------------------- partition sweep

struct PartitionCase {
  graph::ModelKind model;
  int64_t parts;
};

class PartitionSweep
    : public ::testing::TestWithParam<std::tuple<graph::ModelKind, int>> {};

TEST_P(PartitionSweep, ValidCoverAndOrdering) {
  auto [kind, parts] = GetParam();
  graph::ZooConfig cfg;
  cfg.input_hw = 32;
  Graph g = graph::BuildModel(kind, cfg);
  partition::PartitionOptions opts;
  opts.target_partitions = parts;
  opts.seed = 97;
  auto set = partition::RandomContraction(g, opts);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ(set->num_partitions(), parts);

  // Exact cover.
  std::set<graph::NodeId> seen;
  for (const auto& p : set->partitions) {
    for (auto id : p.nodes) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), g.num_nodes());

  // Forward-only cross-partition edges.
  std::map<graph::NodeId, size_t> stage_of;
  for (size_t si = 0; si < set->partitions.size(); ++si) {
    for (auto id : set->partitions[si].nodes) stage_of[id] = si;
  }
  for (const auto& node : g.nodes()) {
    for (auto in : node.inputs) {
      EXPECT_LE(stage_of[in], stage_of[node.id]);
    }
  }

  // The partitioned model stays executable and equivalent.
  auto pm = partition::BuildPartitionedModel(g, *set);
  ASSERT_TRUE(pm.ok()) << pm.status().ToString();
  for (const auto& stage : pm->stages) {
    EXPECT_TRUE(stage.Validate().ok());
    EXPECT_TRUE(stage.InferShapes().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionSweep,
    ::testing::Combine(::testing::Values(graph::ModelKind::kResNet50,
                                         graph::ModelKind::kGoogleNet,
                                         graph::ModelKind::kEfficientNetB7),
                       ::testing::Values(2, 4, 6, 9)),
    [](const auto& info) {
      std::string name(graph::ModelName(std::get<0>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_p" + std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------------- transform compositions

TEST(TransformComposition, RandomOrdersStayEquivalent) {
  graph::ModelBuilder b(77);
  auto x = b.Input("in", Shape({1, 4, 12, 12}));
  x = b.ConvBnRelu(x, 8, 3, 1, 1);
  auto skip = x;
  x = b.ConvBnRelu(x, 8, 3, 1, 1);
  x = b.Relu(b.Add(x, skip));
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.Gemm(x, 6);
  b.MarkOutput(x);
  Graph g = b.Build();

  util::Rng rng(5);
  auto input = Tensor::RandomUniform(Shape({1, 4, 12, 12}), rng);
  auto ref_exec =
      runtime::Executor::Create(g, runtime::ReferenceExecutorConfig());
  ASSERT_TRUE(ref_exec.ok());
  auto expected = (*ref_exec)->Run({input});
  ASSERT_TRUE(expected.ok());

  std::vector<variant::GraphTransform> all = {
      variant::GraphTransform::kInsertDummyOps,
      variant::GraphTransform::kSplitConv,
      variant::GraphTransform::kShuffleChannels,
      variant::GraphTransform::kReorderCommutative,
      variant::GraphTransform::kSelectiveBnFold,
      variant::GraphTransform::kConvToFc,
  };
  for (uint64_t trial = 0; trial < 6; ++trial) {
    auto order = all;
    util::Rng order_rng(trial);
    order_rng.Shuffle(order);
    variant::VariantSpec spec;
    spec.id = "trial" + std::to_string(trial);
    spec.graph_transforms = order;
    spec.transform_seed = trial * 31 + 7;
    spec.exec_config = runtime::OrtLikeExecutorConfig();
    auto vg = variant::BuildVariantGraph(g, spec);
    ASSERT_TRUE(vg.ok()) << trial << ": " << vg.status().ToString();
    auto exec = runtime::Executor::Create(*vg, spec.exec_config);
    ASSERT_TRUE(exec.ok());
    auto out = (*exec)->Run({input});
    ASSERT_TRUE(out.ok());
    EXPECT_GT(tensor::CosineSimilarity((*expected)[0], (*out)[0]), 0.9999)
        << "trial " << trial;
  }
}

// ------------------------------------------------- decoder fuzz (truncation)

template <typename Decoder>
void TruncationNeverCrashes(const util::Bytes& frame, Decoder decode) {
  // Every prefix must be rejected cleanly (the full frame is valid).
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    util::Bytes prefix(frame.begin(), frame.begin() + static_cast<long>(cut));
    auto result = decode(prefix);
    EXPECT_FALSE(result.ok()) << "cut " << cut;
  }
  EXPECT_TRUE(decode(frame).ok());
}

TEST(DecoderFuzz, InferMsgTruncation) {
  core::InferMsg msg;
  msg.batch_id = 5;
  msg.vtime_us = 9;
  msg.slots = {0, 1};
  util::Rng rng(1);
  msg.inputs.push_back(Tensor::RandomUniform(Shape({2, 3}), rng));
  msg.inputs.push_back(Tensor::RandomUniform(Shape({4}), rng));
  TruncationNeverCrashes(core::EncodeInfer(msg), [](util::ByteSpan f) {
    return core::DecodeInfer(f);
  });
}

TEST(DecoderFuzz, InferResultTruncation) {
  core::InferResultMsg msg;
  msg.batch_id = 5;
  msg.ok = true;
  util::Rng rng(2);
  msg.outputs.push_back(Tensor::RandomUniform(Shape({3, 3}), rng));
  TruncationNeverCrashes(core::EncodeInferResult(msg),
                         [](util::ByteSpan f) {
                           return core::DecodeInferResult(f);
                         });
}

TEST(DecoderFuzz, ReleaseTruncationAndCorruption) {
  core::ReleaseMsg msg;
  msg.batch_id = 0x0102030405060708ull;
  const util::Bytes frame = core::EncodeRelease(msg);
  TruncationNeverCrashes(frame, [](util::ByteSpan f) {
    return core::DecodeRelease(f);
  });
  // Trailing bytes and a foreign tag are rejected; every batch id
  // round-trips.
  util::Bytes longer = frame;
  longer.push_back(0);
  EXPECT_FALSE(core::DecodeRelease(longer).ok());
  util::Bytes retagged = frame;
  retagged[0] = static_cast<uint8_t>(core::MsgType::kShutdown);
  EXPECT_FALSE(core::DecodeRelease(retagged).ok());
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    msg.batch_id = rng.NextU64();
    auto back = core::DecodeRelease(core::EncodeRelease(msg));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->batch_id, msg.batch_id);
  }
  auto type = core::PeekType(frame);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, core::MsgType::kRelease);
}

TEST(DecoderFuzz, GraphTruncation) {
  graph::ModelBuilder b(3);
  auto x = b.Input("in", Shape({1, 4}));
  x = b.Gemm(x, 4);
  b.MarkOutput(x);
  Graph g = b.Build();
  auto frame = g.Serialize();
  // Sample cuts (full sweep is large for graphs with weights).
  util::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    size_t cut = rng.UniformU64(frame.size());
    util::Bytes prefix(frame.begin(), frame.begin() + static_cast<long>(cut));
    EXPECT_FALSE(Graph::Deserialize(prefix).ok());
  }
  EXPECT_TRUE(Graph::Deserialize(frame).ok());
}

TEST(DecoderFuzz, ManifestRandomCorruption) {
  tee::Manifest m = tee::InitVariantManifest();
  m.trusted_files["x"] = crypto::Sha256::Hash(util::ToBytes("x"));
  auto frame = m.Serialize();
  util::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    auto corrupt = frame;
    size_t pos = rng.UniformU64(corrupt.size());
    corrupt[pos] ^= static_cast<uint8_t>(1 + rng.UniformU64(255));
    // Must never crash; may or may not decode (some bytes are payload).
    auto result = tee::Manifest::Deserialize(corrupt);
    if (result.ok()) {
      // Either the corruption changed the manifest semantics (hash
      // differs, the measurement chain catches it), or it only changed
      // a non-canonical encoding (e.g. a boolean byte 0x01 -> 0x03) and
      // the canonical re-serialization equals the original.
      if (result->Hash() == m.Hash()) {
        EXPECT_EQ(result->Serialize(), frame);
      }
    }
  }
}

TEST(DecoderFuzz, AttestationReportRandomCorruption) {
  tee::SimulatedCpu cpu{tee::SimulatedCpu::Options{.hardware_key_seed = 9}};
  auto enclave = cpu.LaunchEnclave(tee::TeeType::kSgx2,
                                   util::ToBytes("code"),
                                   tee::MonitorManifest(), 16);
  ASSERT_TRUE(enclave.ok());
  auto report = (*enclave)->CreateReport({});
  auto frame = report.Serialize();
  util::Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    auto corrupt = frame;
    size_t pos = rng.UniformU64(corrupt.size());
    corrupt[pos] ^= static_cast<uint8_t>(1 + rng.UniformU64(255));
    auto parsed = tee::AttestationReport::Deserialize(corrupt);
    if (parsed.ok()) {
      // Any parsed-but-corrupted report must fail verification.
      EXPECT_FALSE(cpu.VerifyReport(*parsed).ok()) << "pos " << pos;
    }
  }
}

// --------------------------------------------------- consistency property

TEST(ConsistencyProperty, MetricsAgreeOnIdenticalAndDisjoint) {
  util::Rng rng(8);
  auto t = Tensor::RandomUniform(Shape({64}), rng);
  auto far = Tensor::RandomUniform(Shape({64}), rng, 50.0f, 100.0f);
  for (auto policy :
       {core::CheckPolicy::Cosine(0.999), core::CheckPolicy::Mse(1e-6),
        core::CheckPolicy::MaxAbs(1e-5),
        core::CheckPolicy::AllClose(1e-5, 1e-7)}) {
    EXPECT_TRUE(core::OutputsConsistent({t}, {t}, policy))
        << core::ConsistencyMetricName(policy.metric);
    EXPECT_FALSE(core::OutputsConsistent({t}, {far}, policy))
        << core::ConsistencyMetricName(policy.metric);
  }
}

TEST(ConsistencyProperty, ThresholdMonotonicity) {
  // If outputs pass at a strict cosine threshold they pass at any looser
  // one.
  util::Rng rng(9);
  auto a = Tensor::RandomUniform(Shape({128}), rng);
  Tensor b = a;
  for (int64_t i = 0; i < b.num_elements(); ++i) {
    b.data()[i] += rng.UniformFloat(-0.01f, 0.01f);
  }
  bool strict = core::OutputsConsistent({a}, {b},
                                        core::CheckPolicy::Cosine(0.9999));
  if (strict) {
    for (double th : {0.999, 0.99, 0.9, 0.5}) {
      EXPECT_TRUE(core::OutputsConsistent({a}, {b},
                                          core::CheckPolicy::Cosine(th)));
    }
  }
}

// ---------------------------------------------------------- vote property

TEST(VoteProperty, FailedVariantsAlwaysDissent) {
  util::Rng rng(10);
  auto t = Tensor::RandomUniform(Shape({32}), rng);
  // Variant 1 crashed (empty output list).
  std::vector<std::vector<Tensor>> outputs = {{t}, {}, {t}};
  auto policy = core::CheckPolicy::Cosine(0.999);
  auto una = core::Vote(outputs, policy, core::VotePolicy::kUnanimous);
  EXPECT_FALSE(una.accepted);
  auto maj = core::Vote(outputs, policy, core::VotePolicy::kMajority);
  EXPECT_TRUE(maj.accepted);
  EXPECT_TRUE(maj.winner == 0 || maj.winner == 2);
  ASSERT_EQ(maj.dissenters.size(), 1u);
  EXPECT_EQ(maj.dissenters[0], 1);
}

TEST(VoteProperty, AllFailedPanelRejects) {
  std::vector<std::vector<Tensor>> outputs = {{}, {}, {}};
  for (auto vp : {core::VotePolicy::kUnanimous, core::VotePolicy::kMajority}) {
    auto r = core::Vote(outputs, core::CheckPolicy::Cosine(0.999), vp);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.winner, -1);
  }
}

// Metric-only reference for the exact vote: the same greedy clustering,
// but every pair is decided by the metric alone, with no byte-equality
// shortcut. `pairs` counts the pair checks made.
bool ReferenceConsistent(const std::vector<Tensor>& a,
                         const std::vector<Tensor>& b,
                         const core::CheckPolicy& policy, uint64_t& pairs) {
  ++pairs;
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape() != b[i].shape()) return false;
    if (tensor::HasNonFinite(a[i]) || tensor::HasNonFinite(b[i])) {
      return false;
    }
    const bool ok =
        policy.metric == core::ConsistencyMetric::kCosine
            ? tensor::CosineSimilarity(a[i], b[i]) >= policy.threshold
            : tensor::MaxAbsDiff(a[i], b[i]) <= policy.threshold;
    if (!ok) return false;
  }
  return true;
}

core::VoteResult ReferenceVote(
    const std::vector<std::vector<Tensor>>& outputs,
    const core::CheckPolicy& policy, core::VotePolicy vote_policy,
    uint64_t& pairs) {
  const size_t n = outputs.size();
  std::vector<int> bloc_of(n, -1);
  std::vector<size_t> reps;
  for (size_t i = 0; i < n; ++i) {
    // Failed and non-finite lists join no bloc.
    if (outputs[i].empty() ||
        std::any_of(outputs[i].begin(), outputs[i].end(),
                    [](const Tensor& t) { return tensor::HasNonFinite(t); })) {
      continue;
    }
    for (size_t r = 0; r < reps.size() && bloc_of[i] < 0; ++r) {
      if (ReferenceConsistent(outputs[i], outputs[reps[r]], policy, pairs)) {
        bloc_of[i] = static_cast<int>(r);
      }
    }
    if (bloc_of[i] < 0) {
      bloc_of[i] = static_cast<int>(reps.size());
      reps.push_back(i);
    }
  }
  std::vector<size_t> size(reps.size(), 0);
  for (int b : bloc_of) {
    if (b >= 0) ++size[static_cast<size_t>(b)];
  }
  int best = -1;
  size_t best_size = 0;
  for (size_t r = 0; r < size.size(); ++r) {
    if (size[r] > best_size) {
      best_size = size[r];
      best = static_cast<int>(r);
    }
  }
  core::VoteResult result;
  result.accepted = vote_policy == core::VotePolicy::kUnanimous
                        ? best_size == n && reps.size() == 1
                        : best_size * 2 > n;
  result.winner =
      result.accepted ? static_cast<int>(reps[static_cast<size_t>(best)]) : -1;
  // Without a strict majority bloc every member dissents.
  for (size_t i = 0; i < n; ++i) {
    if (best_size * 2 <= n || bloc_of[i] != best) {
      result.dissenters.push_back(static_cast<int>(i));
    }
  }
  return result;
}

TEST(VoteProperty, ExactVoteMatchesMetricOnlyVote) {
  // Random panels mixing identical replicas, near diversified outputs,
  // far outputs, NaN-poisoned outputs and crashed variants: the vote
  // with the exact byte shortcut must reach the metric-only decision,
  // and so must the async quorum's largest-bloc scan. Every pair check
  // is counted exactly once.
  util::Rng rng(11);
  for (auto policy :
       {core::CheckPolicy::Cosine(0.999), core::CheckPolicy::MaxAbs(1e-5)}) {
    for (int trial = 0; trial < 60; ++trial) {
      const size_t k = 2 + static_cast<size_t>(trial % 4);
      auto base = Tensor::RandomUniform(Shape({24}), rng);
      std::vector<std::vector<Tensor>> outputs;
      for (size_t i = 0; i < k; ++i) {
        Tensor t = base;
        switch (rng.UniformU64(5)) {
          case 0:  // identical replica
            break;
          case 1:  // near: diversified rounding noise
            for (int64_t j = 0; j < t.num_elements(); ++j) {
              t.data()[j] += rng.UniformFloat(-1e-6f, 1e-6f);
            }
            break;
          case 2:  // far
            t = Tensor::RandomUniform(Shape({24}), rng, 50.0f, 100.0f);
            break;
          case 3:  // NaN-poisoned
            t.data()[rng.UniformU64(24)] =
                std::numeric_limits<float>::quiet_NaN();
            break;
          default:  // crashed
            outputs.push_back({});
            continue;
        }
        outputs.push_back({std::move(t)});
      }
      for (auto vp :
           {core::VotePolicy::kUnanimous, core::VotePolicy::kMajority}) {
        uint64_t pairs = 0;
        auto expected = ReferenceVote(outputs, policy, vp, pairs);
        core::CheckStats stats;
        auto got = core::Vote(outputs, policy, vp, &stats);
        EXPECT_EQ(got.accepted, expected.accepted) << "trial " << trial;
        EXPECT_EQ(got.winner, expected.winner) << "trial " << trial;
        EXPECT_EQ(got.dissenters, expected.dissenters) << "trial " << trial;
        EXPECT_EQ(stats.prefilter_hits + stats.full_checks, pairs)
            << "trial " << trial;
      }

      std::vector<const std::vector<Tensor>*> healthy;
      for (const auto& o : outputs) {
        if (!o.empty()) healthy.push_back(&o);
      }
      uint64_t pairs = 0;
      size_t best_rep = 0, best_size = 0;
      std::vector<char> best_members;
      for (size_t r = 0; r < healthy.size(); ++r) {
        std::vector<char> members(healthy.size(), 0);
        size_t size = 0;
        for (size_t o = 0; o < healthy.size(); ++o) {
          if (ReferenceConsistent(*healthy[o], *healthy[r], policy, pairs)) {
            members[o] = 1;
            ++size;
          }
        }
        if (size > best_size) {
          best_rep = r;
          best_size = size;
          best_members = std::move(members);
        }
      }
      core::CheckStats stats;
      const core::Bloc bloc = core::LargestBloc(healthy, policy, &stats);
      EXPECT_EQ(bloc.size, best_size) << "trial " << trial;
      EXPECT_EQ(bloc.members, best_members) << "trial " << trial;
      if (best_size > 0) {
        EXPECT_EQ(bloc.representative, best_rep) << "trial " << trial;
      }
      EXPECT_EQ(stats.prefilter_hits + stats.full_checks, pairs);
    }
  }
}

TEST(VoteProperty, PrefilterAbsorbsIdenticalPanels) {
  // A fully replicated panel is decided by exact byte comparison alone:
  // zero metric scans.
  util::Rng rng(12);
  auto t = Tensor::RandomUniform(Shape({64}), rng);
  std::vector<std::vector<Tensor>> outputs(4, std::vector<Tensor>{t});
  core::CheckStats stats;
  auto r = core::Vote(outputs, core::CheckPolicy::Cosine(0.999),
                      core::VotePolicy::kUnanimous, &stats);
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.winner, 0);
  EXPECT_EQ(stats.full_checks, 0u);
  EXPECT_EQ(stats.prefilter_hits, 3u);  // each follower joins rep 0 by bytes
}

TEST(VoteProperty, NonFiniteVariantDissents) {
  util::Rng rng(13);
  auto t = Tensor::RandomUniform(Shape({16}), rng);
  Tensor bad = t;
  bad.data()[0] = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::vector<Tensor>> outputs = {{t}, {t}, {bad}};
  for (auto vp :
       {core::VotePolicy::kUnanimous, core::VotePolicy::kMajority}) {
    core::CheckStats stats;
    auto r = core::Vote(outputs, core::CheckPolicy::Cosine(0.999), vp,
                        &stats);
    EXPECT_EQ(r.accepted, vp == core::VotePolicy::kMajority);
    ASSERT_EQ(r.dissenters.size(), 1u);
    EXPECT_EQ(r.dissenters[0], 2);
    // The NaN list is rejected on its flag, never scanned by the metric.
    EXPECT_EQ(stats.full_checks, 0u);
  }
}

// ------------------------------------------------------- conv geometry

struct ConvCase {
  int64_t channels, height, out_channels, kernel, stride, padding, groups;
};

class ConvGeometrySweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometrySweep, AlgorithmsAgreeAndTogglesAreBitwiseNoOps) {
  // Two properties per geometry and GEMM backend: (1) kDirect and
  // kIm2col stay within float tolerance of each other (they are
  // distinct lowerings, not twins); (2) for EACH algorithm, SIMD
  // dispatch and the pack cache are speed knobs only — toggling them
  // must reproduce the exact bits.
  const ConvCase c = GetParam();
  util::Rng rng(static_cast<uint64_t>(
      c.channels * 1'000'000 + c.kernel * 10'000 + c.stride * 1'000 +
      c.padding * 100 + c.groups));
  const Tensor x =
      Tensor::RandomUniform(Shape({2, c.channels, c.height, c.height}), rng);
  const Tensor w = Tensor::RandomUniform(
      Shape({c.out_channels, c.channels / c.groups, c.kernel, c.kernel}),
      rng);
  const Tensor b = Tensor::RandomUniform(Shape({c.out_channels}), rng);
  runtime::ConvParams p;
  p.stride = c.stride;
  p.padding = c.padding;
  p.groups = c.groups;

  auto run = [&](runtime::ConvAlgo algo, runtime::GemmBackend gemm) {
    return runtime::Conv2d(x, w, &b, p, algo, gemm);
  };
  auto expect_toggles_are_noops = [&](runtime::ConvAlgo algo,
                                      runtime::GemmBackend gemm) {
    const std::string label = std::string(runtime::ConvAlgoName(algo)) +
                              "/" +
                              std::string(runtime::GemmBackendName(gemm));
    const Tensor base = run(algo, gemm);
    {
      util::ScopedForceScalar force_scalar;
      const Tensor scalar = run(algo, gemm);
      EXPECT_EQ(std::memcmp(base.data(), scalar.data(), base.byte_size()), 0)
          << label << " under forced scalar";
    }
    {
      runtime::ScopedDisablePackCache cache_off;
      const Tensor uncached = run(algo, gemm);
      EXPECT_EQ(std::memcmp(base.data(), uncached.data(), base.byte_size()),
                0)
          << label << " with pack cache disabled";
    }
  };

  // kDirect ignores the GEMM backend: one run is the reference for all.
  const Tensor direct =
      run(runtime::ConvAlgo::kDirect, runtime::GemmBackend::kNaive);
  expect_toggles_are_noops(runtime::ConvAlgo::kDirect,
                           runtime::GemmBackend::kNaive);
  for (auto gemm :
       {runtime::GemmBackend::kNaive, runtime::GemmBackend::kBlocked,
        runtime::GemmBackend::kTransposed, runtime::GemmBackend::kAvx2}) {
    const Tensor im2col = run(runtime::ConvAlgo::kIm2col, gemm);
    ASSERT_EQ(direct.shape(), im2col.shape());
    EXPECT_LT(tensor::MaxAbsDiff(direct, im2col), 1e-4)
        << runtime::GemmBackendName(gemm);
    expect_toggles_are_noops(runtime::ConvAlgo::kIm2col, gemm);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, ConvGeometrySweep,
    ::testing::Values(
        ConvCase{8, 9, 8, 3, 1, 1, 1},     // the common 3x3 same-conv
        ConvCase{8, 9, 8, 3, 2, 1, 1},     // strided
        ConvCase{8, 9, 8, 3, 3, 2, 1},     // stride 3, fat padding
        ConvCase{8, 9, 8, 3, 1, 0, 1},     // valid conv (shrinking)
        ConvCase{8, 9, 16, 1, 1, 0, 1},    // 1x1: identity-cols fast path
        ConvCase{8, 9, 16, 1, 2, 0, 1},    // 1x1 strided: no fast path
        ConvCase{8, 9, 16, 1, 1, 1, 1},    // 1x1 padded: no fast path
        ConvCase{8, 9, 8, 3, 1, 1, 4},     // grouped
        ConvCase{8, 9, 8, 3, 2, 1, 8},     // depthwise, strided
        ConvCase{4, 7, 4, 5, 1, 2, 2},     // 5x5 grouped on odd input
        ConvCase{4, 5, 4, 5, 1, 0, 1},     // kernel == input extent
        ConvCase{576, 1, 144, 1, 1, 0, 1}, // SE block: 1x1 on a 1x1 map
        ConvCase{8, 9, 8, 5, 2, 2, 8}),    // 5x5 strided depthwise
    [](const auto& info) {
      const ConvCase& c = info.param;
      return "c" + std::to_string(c.channels) + "h" +
             std::to_string(c.height) + "o" + std::to_string(c.out_channels) +
             "k" + std::to_string(c.kernel) + "s" + std::to_string(c.stride) +
             "p" + std::to_string(c.padding) + "g" +
             std::to_string(c.groups);
    });

}  // namespace
}  // namespace mvtee
