#include "runtime/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "runtime/kernels_avx2.h"
#include "runtime/scratch.h"
#include "util/cpu_features.h"

namespace mvtee::runtime {

using tensor::Shape;
using tensor::Tensor;

std::string_view ConvAlgoName(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kDirect: return "direct";
    case ConvAlgo::kIm2col: return "im2col";
  }
  return "unknown";
}

namespace {

// Dispatch gate for the elementwise AVX2 tier: the binary must carry
// the vector TU and the host/policy must allow SIMD. Evaluated per
// call (SimdEnabled is dynamic under ScopedForceScalar).
bool UseVectorElementwise() {
  return internal::Avx2ElementwiseCompiled() && util::UseAvx2Elementwise();
}

// Window geometry is validated before any output dim is computed: a
// non-positive stride, negative padding or non-positive kernel would
// silently produce garbage shapes (division by zero or negative
// extents), so they abort loudly instead (ISSUE: OutDim accepted
// stride <= 0 without complaint).
int64_t OutDim(int64_t in, int64_t k, int64_t stride, int64_t pad) {
  MVTEE_CHECK(stride > 0);
  MVTEE_CHECK(pad >= 0);
  MVTEE_CHECK(k > 0);
  MVTEE_CHECK(in > 0);
  return (in + 2 * pad - k) / stride + 1;
}

void ConvDirect(const Tensor& input, const Tensor& weight, const float* bias,
                const ConvParams& p, Tensor& out) {
  const int64_t N = input.shape().dim(0), C = input.shape().dim(1),
                H = input.shape().dim(2), W = input.shape().dim(3);
  const int64_t OC = weight.shape().dim(0), CG = weight.shape().dim(1),
                KH = weight.shape().dim(2), KW = weight.shape().dim(3);
  const int64_t OH = out.shape().dim(2), OW = out.shape().dim(3);
  const int64_t oc_per_group = OC / p.groups;

  for (int64_t n = 0; n < N; ++n) {
    for (int64_t oc = 0; oc < OC; ++oc) {
      const int64_t g = oc / oc_per_group;
      const float b = bias ? bias[oc] : 0.0f;
      for (int64_t oh = 0; oh < OH; ++oh) {
        for (int64_t ow = 0; ow < OW; ++ow) {
          float acc = b;
          for (int64_t cg = 0; cg < CG; ++cg) {
            const int64_t c = g * CG + cg;
            for (int64_t kh = 0; kh < KH; ++kh) {
              const int64_t ih = oh * p.stride + kh - p.padding;
              if (ih < 0 || ih >= H) continue;
              for (int64_t kw = 0; kw < KW; ++kw) {
                const int64_t iw = ow * p.stride + kw - p.padding;
                if (iw < 0 || iw >= W) continue;
                acc += input.data()[((n * C + c) * H + ih) * W + iw] *
                       weight.data()[((oc * CG + cg) * KH + kh) * KW + kw];
              }
            }
          }
          out.data()[((n * OC + oc) * OH + oh) * OW + ow] = acc;
        }
      }
    }
  }
}

void ConvIm2col(const Tensor& input, const Tensor& weight, const float* bias,
                const ConvParams& p, GemmBackend gemm, Tensor& out) {
  const int64_t N = input.shape().dim(0), C = input.shape().dim(1),
                H = input.shape().dim(2), W = input.shape().dim(3);
  const int64_t OC = weight.shape().dim(0), CG = weight.shape().dim(1),
                KH = weight.shape().dim(2), KW = weight.shape().dim(3);
  const int64_t OH = out.shape().dim(2), OW = out.shape().dim(3);
  const int64_t oc_per_group = OC / p.groups;
  const int64_t patch = CG * KH * KW;
  const int64_t cols = OH * OW;

  // 1x1/stride-1/no-padding convs (projection layers, SE blocks) have a
  // column matrix that IS the input group block: channels of one group
  // are contiguous, so col[cg][oh*OW+ow] == in_plane[oh*W+ow] exactly.
  // Feed the input to the GEMM directly — the fill and the col scratch
  // vanish, and the GEMM reads identical values, so outputs stay
  // bitwise identical to the filled path.
  const bool identity_cols =
      KH == 1 && KW == 1 && p.stride == 1 && p.padding == 0;

  // Scratch from the buffer pool: steady-state inference recycles these
  // chunks (pool.hits) instead of hitting the heap per call.
  util::PooledBuffer col_buf;
  if (!identity_cols) {
    col_buf = AcquireFloatScratch(static_cast<size_t>(patch * cols));
  }
  util::PooledBuffer result_buf =
      AcquireFloatScratch(static_cast<size_t>(oc_per_group * cols));
  float* col = identity_cols ? nullptr : FloatScratch(col_buf);
  float* result = FloatScratch(result_buf);

  for (int64_t n = 0; n < N; ++n) {
    for (int64_t g = 0; g < p.groups; ++g) {
      const float* cols_matrix;
      if (identity_cols) {
        cols_matrix = input.data() + (n * C + g * CG) * H * W;
      } else {
        // im2col for this (batch, group).
        for (int64_t cg = 0; cg < CG; ++cg) {
          const int64_t c = g * CG + cg;
          const float* in_plane = input.data() + (n * C + c) * H * W;
          for (int64_t kh = 0; kh < KH; ++kh) {
            for (int64_t kw = 0; kw < KW; ++kw) {
              float* col_row = col + ((cg * KH + kh) * KW + kw) * cols;
              for (int64_t oh = 0; oh < OH; ++oh) {
                const int64_t ih = oh * p.stride + kh - p.padding;
                if (ih < 0 || ih >= H) {
                  std::fill(col_row + oh * OW, col_row + (oh + 1) * OW, 0.0f);
                  continue;
                }
                for (int64_t ow = 0; ow < OW; ++ow) {
                  const int64_t iw = ow * p.stride + kw - p.padding;
                  col_row[oh * OW + ow] =
                      (iw < 0 || iw >= W) ? 0.0f : in_plane[ih * W + iw];
                }
              }
            }
          }
        }
        cols_matrix = col;
      }
      // GEMM: weight[g] (oc_per_group x patch) * col (patch x cols).
      const float* w_group = weight.data() + g * oc_per_group * patch;
      Gemm(gemm, w_group, cols_matrix, result, oc_per_group, cols, patch);
      // Scatter into output with bias (vectorized broadcast-add).
      for (int64_t ocg = 0; ocg < oc_per_group; ++ocg) {
        const int64_t oc = g * oc_per_group + ocg;
        float* out_plane = out.data() + (n * OC + oc) * OH * OW;
        const float* res_row = result + ocg * cols;
        if (bias) {
          elementwise::AddScalar(res_row, bias[oc], out_plane, cols);
        } else {
          std::memcpy(out_plane, res_row,
                      static_cast<size_t>(cols) * sizeof(float));
        }
      }
    }
  }
}

// acc[q] += w * x[q * stride] for q in [0, count): one tap of a
// depthwise window applied to every output of a plane.
void AccumulateTap(float* acc, const float* x, float w, int64_t count,
                   int64_t stride) {
  for (int64_t q = 0; q < count; ++q) acc[q] += w * x[q * stride];
}

// Depthwise convs (groups == C == OC) without the column matrix. The
// im2col lowering runs each channel as an M=1 GEMM whose B column j is
// output j's KH*KW window, with zeros at padded taps. This computes the
// same per-output sums from a zero-padded copy of the plane, in the
// GEMM backend's own accumulation order:
//   kNaive, kBlocked: one sequential sum from +0.0f over all taps;
//   kTransposed:      four partial sums over the taps in groups of four,
//                     then (s0+s1)+(s2+s3), then the tail taps.
// Padded taps are multiplied like any other (w * 0.0f), so an inf
// weight on a padded tap makes the same NaN the GEMM makes. The bias
// is added last, as on the im2col path, so outputs are bitwise
// identical to it. (kAvx2's fmaf chain lives in its own TU; that
// backend stays on im2col.)
//
// Sums are kept on a grid as wide as the padded plane: output (oh, ow)
// sits at q = oh * WP + ow, and tap (kh, kw) reads padded element
// stride * q + kh * WP + kw. Every tap is then one pass over a single
// run of q, however small the plane; the columns ow >= OW of that grid
// are computed and dropped.
void ConvDepthwise(const Tensor& input, const Tensor& weight,
                   const float* bias, const ConvParams& p, GemmBackend gemm,
                   Tensor& out) {
  const int64_t N = input.shape().dim(0), C = input.shape().dim(1),
                H = input.shape().dim(2), W = input.shape().dim(3);
  const int64_t KH = weight.shape().dim(2), KW = weight.shape().dim(3);
  const int64_t OH = out.shape().dim(2), OW = out.shape().dim(3);
  const int64_t HP = H + 2 * p.padding, WP = W + 2 * p.padding;
  const int64_t taps = KH * KW;
  const int64_t run = (OH - 1) * WP + OW;  // q of the last output + 1
  const int64_t lanes = gemm == GemmBackend::kTransposed ? 4 : 1;

  // The border stays zero across planes; only the interior is rewritten.
  util::PooledBuffer padded_buf =
      AcquireFloatScratch(static_cast<size_t>(HP * WP));
  float* padded = FloatScratch(padded_buf);
  std::fill(padded, padded + HP * WP, 0.0f);
  util::PooledBuffer sums_buf =
      AcquireFloatScratch(static_cast<size_t>(lanes * run));
  float* sums = FloatScratch(sums_buf);

  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c = 0; c < C; ++c) {
      const float* in_plane = input.data() + (n * C + c) * H * W;
      for (int64_t ih = 0; ih < H; ++ih) {
        std::memcpy(padded + (ih + p.padding) * WP + p.padding,
                    in_plane + ih * W, static_cast<size_t>(W) * sizeof(float));
      }
      const float* w = weight.data() + c * taps;
      auto tap = [&](float* acc, int64_t t) {
        AccumulateTap(acc, padded + t / KW * WP + t % KW, w[t], run,
                      p.stride);
      };
      std::fill(sums, sums + lanes * run, 0.0f);
      int64_t t = 0;
      if (lanes == 4) {
        for (; t + 4 <= taps; t += 4) {
          for (int64_t lane = 0; lane < 4; ++lane) {
            tap(sums + lane * run, t + lane);
          }
        }
        for (int64_t q = 0; q < run; ++q) {
          sums[q] = (sums[q] + sums[run + q]) +
                    (sums[2 * run + q] + sums[3 * run + q]);
        }
      }
      for (; t < taps; ++t) tap(sums, t);

      float* out_plane = out.data() + (n * C + c) * OH * OW;
      for (int64_t oh = 0; oh < OH; ++oh) {
        std::memcpy(out_plane + oh * OW, sums + oh * WP,
                    static_cast<size_t>(OW) * sizeof(float));
      }
      if (bias) elementwise::AddScalar(out_plane, bias[c], out_plane, OH * OW);
    }
  }
}

template <typename F>
Tensor ElementwiseUnary(const Tensor& x, F f) {
  Tensor out(x.shape());
  const float* in = x.data();
  float* o = out.data();
  for (int64_t i = 0; i < x.num_elements(); ++i) o[i] = f(in[i]);
  return out;
}

}  // namespace

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const ConvParams& params, ConvAlgo algo, GemmBackend gemm) {
  MVTEE_CHECK(input.shape().rank() == 4 && weight.shape().rank() == 4);
  MVTEE_CHECK(params.groups > 0);
  MVTEE_CHECK(weight.shape().dim(0) % params.groups == 0);
  MVTEE_CHECK(input.shape().dim(1) ==
              weight.shape().dim(1) * params.groups);
  const int64_t OH = OutDim(input.shape().dim(2), weight.shape().dim(2),
                            params.stride, params.padding);
  const int64_t OW = OutDim(input.shape().dim(3), weight.shape().dim(3),
                            params.stride, params.padding);
  MVTEE_CHECK(OH > 0 && OW > 0);
  Tensor out(
      Shape({input.shape().dim(0), weight.shape().dim(0), OH, OW}));
  const float* b = bias ? bias->data() : nullptr;
  const bool depthwise = params.groups == input.shape().dim(1) &&
                         params.groups == weight.shape().dim(0);
  if (algo == ConvAlgo::kDirect) {
    ConvDirect(input, weight, b, params, out);
  } else if (depthwise && gemm != GemmBackend::kAvx2) {
    ConvDepthwise(input, weight, b, params, gemm, out);
  } else {
    ConvIm2col(input, weight, b, params, gemm, out);
  }
  return out;
}

Tensor FullyConnected(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, GemmBackend gemm) {
  return FullyConnected(input, weight, bias, gemm, nullptr);
}

Tensor FullyConnected(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, GemmBackend gemm,
                      const PackedGemmB* packed) {
  MVTEE_CHECK(input.shape().rank() == 2 && weight.shape().rank() == 2);
  const int64_t N = input.shape().dim(0), IN = input.shape().dim(1),
                OUT = weight.shape().dim(0);
  MVTEE_CHECK(weight.shape().dim(1) == IN);
  Tensor out(Shape({N, OUT}));
  if (packed != nullptr) {
    // Cached weight: B = W^T is already in the backend's hot-path
    // layout, so the per-call transpose (and any backend-side packing)
    // is skipped entirely. Bitwise identical to the cold path below —
    // packing only relocates values, never reorders accumulation.
    MVTEE_CHECK(packed->backend == gemm);
    MVTEE_CHECK(packed->n == OUT && packed->k == IN);
    GemmPrepacked(input.data(), *packed, out.data(), N);
  } else {
    // Transpose W to [IN, OUT] then GEMM x[N,IN] * wt[IN,OUT]; the
    // transpose scratch comes from the buffer pool.
    util::PooledBuffer wt_buf =
        AcquireFloatScratch(static_cast<size_t>(IN * OUT));
    float* wt = FloatScratch(wt_buf);
    for (int64_t o = 0; o < OUT; ++o) {
      for (int64_t i = 0; i < IN; ++i) {
        wt[i * OUT + o] = weight.data()[o * IN + i];
      }
    }
    Gemm(gemm, input.data(), wt, out.data(), N, OUT, IN);
  }
  if (bias) {
    // Row-wise vector add of the bias (out += b per row).
    for (int64_t n = 0; n < N; ++n) {
      float* out_row = out.data() + n * OUT;
      elementwise::Add(out_row, bias->data(), out_row, OUT);
    }
  }
  return out;
}

Tensor Relu(const Tensor& x) {
  Tensor out(x.shape());
  elementwise::Relu(x.data(), out.data(), x.num_elements());
  return out;
}

Tensor Relu6(const Tensor& x) {
  Tensor out(x.shape());
  elementwise::Relu6(x.data(), out.data(), x.num_elements());
  return out;
}

Tensor Sigmoid(const Tensor& x) {
  return ElementwiseUnary(
      x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

Tensor HardSwish(const Tensor& x) {
  Tensor out(x.shape());
  elementwise::HardSwish(x.data(), out.data(), x.num_elements());
  return out;
}

Tensor Tanh(const Tensor& x) {
  return ElementwiseUnary(x, [](float v) { return std::tanh(v); });
}

namespace {
template <bool kMax>
Tensor Pool(const Tensor& x, int64_t kernel, int64_t stride, int64_t padding) {
  MVTEE_CHECK(x.shape().rank() == 4);
  const int64_t N = x.shape().dim(0), C = x.shape().dim(1),
                H = x.shape().dim(2), W = x.shape().dim(3);
  const int64_t OH = OutDim(H, kernel, stride, padding);
  const int64_t OW = OutDim(W, kernel, stride, padding);
  MVTEE_CHECK(OH > 0 && OW > 0);
  Tensor out(Shape({N, C, OH, OW}));
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c = 0; c < C; ++c) {
      const float* in_plane = x.data() + (n * C + c) * H * W;
      float* out_plane = out.data() + (n * C + c) * OH * OW;
      for (int64_t oh = 0; oh < OH; ++oh) {
        for (int64_t ow = 0; ow < OW; ++ow) {
          float acc = kMax ? -std::numeric_limits<float>::infinity() : 0.0f;
          for (int64_t kh = 0; kh < kernel; ++kh) {
            const int64_t ih = oh * stride + kh - padding;
            if (ih < 0 || ih >= H) continue;
            for (int64_t kw = 0; kw < kernel; ++kw) {
              const int64_t iw = ow * stride + kw - padding;
              if (iw < 0 || iw >= W) continue;
              const float v = in_plane[ih * W + iw];
              if constexpr (kMax) {
                acc = std::max(acc, v);
              } else {
                acc += v;
              }
            }
          }
          if constexpr (!kMax) {
            acc /= static_cast<float>(kernel * kernel);
          }
          out_plane[oh * OW + ow] = acc;
        }
      }
    }
  }
  return out;
}
}  // namespace

Tensor MaxPool(const Tensor& x, int64_t kernel, int64_t stride,
               int64_t padding) {
  return Pool<true>(x, kernel, stride, padding);
}

Tensor AvgPool(const Tensor& x, int64_t kernel, int64_t stride,
               int64_t padding) {
  return Pool<false>(x, kernel, stride, padding);
}

Tensor GlobalAvgPool(const Tensor& x) {
  MVTEE_CHECK(x.shape().rank() == 4);
  const int64_t N = x.shape().dim(0), C = x.shape().dim(1),
                HW = x.shape().dim(2) * x.shape().dim(3);
  Tensor out(Shape({N, C, 1, 1}));
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c = 0; c < C; ++c) {
      const float* plane = x.data() + (n * C + c) * HW;
      double acc = 0;
      for (int64_t i = 0; i < HW; ++i) acc += plane[i];
      out.data()[n * C + c] = static_cast<float>(acc / HW);
    }
  }
  return out;
}

Tensor BatchNorm(const Tensor& x, const Tensor& scale, const Tensor& bias,
                 const Tensor& mean, const Tensor& var, float epsilon) {
  MVTEE_CHECK(x.shape().rank() == 4);
  const int64_t N = x.shape().dim(0), C = x.shape().dim(1),
                HW = x.shape().dim(2) * x.shape().dim(3);
  MVTEE_CHECK(scale.num_elements() == C);
  Tensor out(x.shape());
  for (int64_t c = 0; c < C; ++c) {
    const float inv_std = 1.0f / std::sqrt(var.at(c) + epsilon);
    const float a = scale.at(c) * inv_std;
    const float b = bias.at(c) - mean.at(c) * a;
    for (int64_t n = 0; n < N; ++n) {
      const float* in_plane = x.data() + (n * C + c) * HW;
      float* out_plane = out.data() + (n * C + c) * HW;
      for (int64_t i = 0; i < HW; ++i) out_plane[i] = in_plane[i] * a + b;
    }
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  MVTEE_CHECK(a.shape() == b.shape());
  Tensor out(a.shape());
  elementwise::Add(a.data(), b.data(), out.data(), a.num_elements());
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    for (int64_t i = 0; i < a.num_elements(); ++i) {
      out.data()[i] = a.at(i) * b.at(i);
    }
    return out;
  }
  // Channel broadcast: b is [N,C,1,1].
  MVTEE_CHECK(a.shape().rank() == 4 && b.shape().rank() == 4);
  MVTEE_CHECK(b.shape().dim(2) == 1 && b.shape().dim(3) == 1);
  MVTEE_CHECK(a.shape().dim(0) == b.shape().dim(0) &&
              a.shape().dim(1) == b.shape().dim(1));
  const int64_t N = a.shape().dim(0), C = a.shape().dim(1),
                HW = a.shape().dim(2) * a.shape().dim(3);
  Tensor out(a.shape());
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c = 0; c < C; ++c) {
      const float s = b.data()[n * C + c];
      const float* in_plane = a.data() + (n * C + c) * HW;
      float* out_plane = out.data() + (n * C + c) * HW;
      for (int64_t i = 0; i < HW; ++i) out_plane[i] = in_plane[i] * s;
    }
  }
  return out;
}

Tensor Concat(const std::vector<const Tensor*>& xs) {
  MVTEE_CHECK(xs.size() >= 2);
  const Shape& first = xs[0]->shape();
  MVTEE_CHECK(first.rank() == 4);
  int64_t channels = 0;
  for (const Tensor* t : xs) channels += t->shape().dim(1);
  const int64_t N = first.dim(0), H = first.dim(2), W = first.dim(3);
  Tensor out(Shape({N, channels, H, W}));
  const int64_t hw = H * W;
  for (int64_t n = 0; n < N; ++n) {
    int64_t c_off = 0;
    for (const Tensor* t : xs) {
      const int64_t tc = t->shape().dim(1);
      MVTEE_CHECK(t->shape().dim(0) == N && t->shape().dim(2) == H &&
                  t->shape().dim(3) == W);
      std::copy(t->data() + n * tc * hw, t->data() + (n + 1) * tc * hw,
                out.data() + (n * channels + c_off) * hw);
      c_off += tc;
    }
  }
  return out;
}

Tensor Flatten(const Tensor& x) {
  MVTEE_CHECK(x.shape().rank() >= 2);
  int64_t rest = 1;
  for (int64_t i = 1; i < x.shape().rank(); ++i) rest *= x.shape().dim(i);
  // Pure reshape: alias the input's storage (views included) instead of
  // copying the element vector.
  return Tensor::Reshape(x, Shape({x.shape().dim(0), rest}));
}

Tensor Softmax(const Tensor& x) {
  MVTEE_CHECK(x.shape().rank() == 2);
  const int64_t N = x.shape().dim(0), D = x.shape().dim(1);
  Tensor out(x.shape());
  for (int64_t n = 0; n < N; ++n) {
    const float* row = x.data() + n * D;
    float* out_row = out.data() + n * D;
    // Max and normalize passes dispatch to the AVX2 tier; the exp and
    // double-precision sum passes stay scalar on purpose — libm's exp
    // has no bitwise-identical vector twin, and dispatch must never
    // change a variant's numeric profile.
    const float max_v = elementwise::MaxReduce(row, D);
    double sum = 0;
    for (int64_t i = 0; i < D; ++i) {
      out_row[i] = std::exp(row[i] - max_v);
      sum += out_row[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    elementwise::MulScalar(out_row, inv, D);
  }
  return out;
}

Tensor Scale(const Tensor& x, float alpha, float beta) {
  Tensor out(x.shape());
  elementwise::Scale(x.data(), alpha, beta, out.data(), x.num_elements());
  return out;
}

namespace elementwise {

// Scalar fallbacks mirror the vector tier's per-element semantics
// exactly (see kernels_avx2.h); both sides round once per operation,
// so the memcmp parity tests hold for arbitrary inputs.

void Relu(const float* in, float* out, int64_t n) {
  if (UseVectorElementwise()) {
    internal::ReluAvx2(in, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) out[i] = in[i] > 0 ? in[i] : 0.0f;
}

void Relu6(const float* in, float* out, int64_t n) {
  if (UseVectorElementwise()) {
    internal::Relu6Avx2(in, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    out[i] = std::min(6.0f, std::max(0.0f, in[i]));
  }
}

void HardSwish(const float* in, float* out, int64_t n) {
  if (UseVectorElementwise()) {
    internal::HardSwishAvx2(in, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    out[i] = in[i] * std::min(6.0f, std::max(0.0f, in[i] + 3.0f)) / 6.0f;
  }
}

void Add(const float* a, const float* b, float* out, int64_t n) {
  if (UseVectorElementwise()) {
    internal::AddAvx2(a, b, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void AddScalar(const float* in, float s, float* out, int64_t n) {
  if (UseVectorElementwise()) {
    internal::AddScalarAvx2(in, s, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) out[i] = in[i] + s;
}

void Scale(const float* in, float alpha, float beta, float* out, int64_t n) {
  if (UseVectorElementwise()) {
    internal::ScaleAvx2(in, alpha, beta, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) out[i] = in[i] * alpha + beta;
}

float MaxReduce(const float* x, int64_t n) {
  MVTEE_CHECK(n >= 1);
  if (UseVectorElementwise()) return internal::MaxReduceAvx2(x, n);
  float m = x[0];
  for (int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

void MulScalar(float* data, float s, int64_t n) {
  if (UseVectorElementwise()) {
    internal::MulScalarAvx2(data, s, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) data[i] *= s;
}

}  // namespace elementwise

}  // namespace mvtee::runtime
