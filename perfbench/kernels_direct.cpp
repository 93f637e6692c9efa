// Direct kernel calls at default-ModelConfig shapes. FLOP and byte counts
// are worked out here from the shapes, not read from the program, so the
// achieved GFLOP/s and GB/s can be set against the step's kernel times.
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "kernels/attention.h"
#include "kernels/gemm.h"
#include "kernels/layernorm.h"
#include "model/config.h"

namespace pb {
namespace {

std::vector<float> randv(size_t n, sf::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Median seconds per call of `fn` over repeated calls filling ~`budget_s`
/// (at least 5 calls), each call wrapped in a "bench/<name>" span.
template <typename Fn>
double per_call_s(const char* name, double budget_s, Fn&& fn) {
  fn();  // warm caches and packing buffers
  std::vector<double> t;
  const double start = now_s();
  while (t.size() < 5 || now_s() - start < budget_s) {
    sf::obs::TraceSpan span("bench", name);
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

}  // namespace

void kernel_throughput_metrics(Result& r) {
  const sf::model::ModelConfig cfg;
  sf::Rng rng(2024);

  // Triangle attention over the pair representation: batch = R rows,
  // H heads, R x R logits per head.
  sf::kernels::AttentionDims d;
  d.batch = cfg.crop_len;
  d.heads = cfg.heads;
  d.q_len = cfg.crop_len;
  d.k_len = cfg.crop_len;
  d.head_dim = cfg.head_dim;
  const size_t qn = static_cast<size_t>(d.qkv_numel(true));
  auto q = randv(qn, rng), k = randv(qn, rng), v = randv(qn, rng);
  auto bias = randv(static_cast<size_t>(d.bias_numel()), rng);
  std::vector<float> out(qn), dout = randv(qn, rng), dq(qn), dk(qn), dv(qn),
      dbias(static_cast<size_t>(d.bias_numel()));
  sf::kernels::AttentionContext ctx;
  // Q K^T and P V: 2 * (2 B H Sq Sk D). Backward: dV, dP, dQ, dK, another
  // 4 GEMM-shaped products (the flash recompute of Q K^T is not counted).
  const double logits_x_d = double(d.batch) * d.heads * d.q_len * d.k_len *
                            d.head_dim;
  const double fwd_s = per_call_s("mha_fwd_direct", 0.2, [&] {
    sf::kernels::mha_forward_flash(d, q.data(), k.data(), v.data(),
                                   bias.data(), nullptr, out.data(), &ctx);
  });
  const double bwd_s = per_call_s("mha_bwd_direct", 0.2, [&] {
    sf::kernels::mha_backward_flash(d, q.data(), k.data(), v.data(),
                                    bias.data(), nullptr, out.data(),
                                    dout.data(), ctx, dq.data(), dk.data(),
                                    dv.data(), dbias.data());
  });
  r.metric("kernels.mha_fwd.gflops", 4 * logits_x_d / fwd_s * 1e-9, "GFLOP/s");
  r.metric("kernels.mha_bwd.gflops", 8 * logits_x_d / bwd_s * 1e-9, "GFLOP/s");

  // Pair transition's first linear: [R*R, c_z] x [c_z, factor*c_z].
  const int64_t m = cfg.crop_len * cfg.crop_len, kk = cfg.c_z,
                n = cfg.c_z * cfg.transition_factor;
  auto a = randv(size_t(m * kk), rng), b = randv(size_t(kk * n), rng);
  std::vector<float> c(size_t(m * n));
  const double gemm_s = per_call_s("gemm_direct", 0.2, [&] {
    sf::kernels::gemm(a.data(), b.data(), c.data(), m, kk, n);
  });
  r.metric("kernels.gemm.gflops", 2.0 * m * kk * n / gemm_s * 1e-9, "GFLOP/s");

  // Fused LayerNorm over the pair representation: read x, write y.
  auto x = randv(size_t(m * kk), rng), gamma = randv(size_t(kk), rng),
       beta = randv(size_t(kk), rng);
  std::vector<float> y(size_t(m * kk));
  sf::kernels::LayerNormStats stats;
  const double ln_s = per_call_s("layernorm_direct", 0.2, [&] {
    sf::kernels::layernorm_forward_fused(x.data(), gamma.data(), beta.data(),
                                         y.data(), m, kk, 1e-5f, &stats);
  });
  const double ln_bytes = 2.0 * m * kk * sizeof(float);
  r.metric("kernels.layernorm.gbps", ln_bytes / ln_s * 1e-9, "GB/s");
  r.note("direct kernels: mha B=" + std::to_string(d.batch) + " H=" +
         std::to_string(d.heads) + " L=" + std::to_string(d.q_len) + " D=" +
         std::to_string(d.head_dim) + "; gemm " + std::to_string(m) + "x" +
         std::to_string(kk) + "x" + std::to_string(n) + "; layernorm " +
         std::to_string(m) + "x" + std::to_string(kk));
}

}  // namespace pb
