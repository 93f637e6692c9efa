// serve_mix: the inference service under an open loop at a fixed rate,
// then a closed loop with a fixed number of callers.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "model/alphafold.h"
#include "serve/service.h"

namespace pb {
namespace {

constexpr double kOpenRate = 3.0;       // requests per second, ~40% of capacity
constexpr double kTailQ = 0.8;          // 50 open-loop requests per run
constexpr int kClosedCallers = 4;       // outstanding requests, closed loop
constexpr double kRepeatShare = 0.5;    // requests drawn from the hot set
constexpr int kHotSet = 16;             // distinct repeated sequences
constexpr int kSetupReps = 5;
constexpr int kDirectChecks = 3;        // responses re-derived directly
constexpr int64_t kPopulation = 1 << 14;

sf::data::DatasetConfig serve_dataset(uint64_t seed) {
  sf::data::DatasetConfig dc;
  dc.num_samples = kPopulation;
  dc.seed = seed;
  return dc;
}

/// Request stream: with probability kRepeatShare a sequence of the hot
/// set, otherwise one never requested before. Indices below `first_fresh`
/// are reserved for warm-up.
class RequestStream {
 public:
  RequestStream(uint64_t seed, int64_t first_fresh)
      : rng_(seed * 2654435761ull + 3), next_fresh_(first_fresh) {
    for (int i = 0; i < kHotSet; ++i) hot_.push_back(next_fresh_++);
  }
  int64_t next() {
    if (rng_.uniform() < kRepeatShare) {
      return hot_[rng_.uniform_int(hot_.size())];
    }
    return next_fresh_++;
  }

 private:
  sf::Rng rng_;
  int64_t next_fresh_;
  std::vector<int64_t> hot_;
};

/// lDDT-Ca, written from the definition: for residue pairs (i != j) whose
/// true distance is under 15 A, the share of the thresholds 0.5, 1, 2, 4 A
/// the predicted distance error stays under; averaged per residue, then
/// over residues with at least one such pair.
double lddt_reference(const sf::Tensor& pred, const sf::Tensor& truth,
                      const sf::Tensor& mask) {
  const int64_t n = mask.numel();
  auto dist = [](const sf::Tensor& p, int64_t i, int64_t j) {
    double s = 0.0;
    for (int c = 0; c < 3; ++c) {
      const double d = double(p.at(i * 3 + c)) - double(p.at(j * 3 + c));
      s += d * d;
    }
    return std::sqrt(s);
  };
  double sum = 0.0;
  int64_t scored = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (mask.at(i) < 0.5f) continue;
    double hits = 0.0;
    int64_t pairs = 0;
    for (int64_t j = 0; j < n; ++j) {
      if (i == j || mask.at(j) < 0.5f) continue;
      const double dt = dist(truth, i, j);
      if (dt >= 15.0) continue;
      const double err = std::fabs(dist(pred, i, j) - dt);
      for (double thr : {0.5, 1.0, 2.0, 4.0}) hits += err < thr ? 0.25 : 0.0;
      ++pairs;
    }
    if (pairs > 0) {
      sum += hits / double(pairs);
      ++scored;
    }
  }
  return scored == 0 ? 1.0 : sum / double(scored);
}

bool same_tensor(const sf::Tensor& a, const sf::Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), size_t(a.numel()) * sizeof(float)) ==
             0;
}

struct Served {
  sf::serve::Response resp;
  double latency_s = 0.0;  ///< due time -> response ready (open loop)
};

}  // namespace

void run_serve_mix(const Options& opt, Result& r) {
  const sf::model::ModelConfig base;
  sf::set_num_threads(1);
  std::unique_ptr<sf::serve::Service> svc;
  std::vector<int64_t> warm;  // one sequence per length bucket
  auto setup = [&] {
    svc = std::make_unique<sf::serve::Service>(
        sf::serve::ServeConfig{}, serve_dataset(opt.seed), base);
    // Warm every bucket replica of the model worker: one eager forward,
    // then the capture of its memory plan.
    sf::data::SyntheticProteinDataset ds(serve_dataset(opt.seed));
    sf::serve::BucketScheduler sched(svc->config().scheduler);
    std::map<int64_t, int64_t> per_bucket;
    for (int64_t i = 0; i < ds.size(); ++i) {
      per_bucket.emplace(sched.bucket_for(ds.meta(i).seq_len), i);
    }
    warm.clear();
    for (const auto& [bucket, index] : per_bucket) warm.push_back(index);
    for (int round = 0; round < 2; ++round) {
      for (int64_t w : warm) svc->submit(w);
      svc->wait_all();
    }
  };
  const double setup_s =
      timed_setup(kSetupReps, setup, [&] { svc.reset(); });
  r.note("peak RSS after set-up: " + fmt(peak_rss_mb()) + " MB");
  int64_t reserved = 0;
  for (int64_t w : warm) reserved = std::max(reserved, w + 1);
  RequestStream stream(opt.seed, reserved);
  r.note("threads: " + std::to_string(svc->config().feature_workers) +
         " feature workers + " + std::to_string(svc->config().model_workers) +
         " model worker x 1 intra-op");

  std::vector<Served> all;
  int64_t not_ok = 0;
  auto keep = [&](std::vector<sf::serve::Response> rs) {
    for (auto& x : rs) {
      not_ok += x.ok ? 0 : 1;
      all.push_back({std::move(x), 0.0});
    }
  };

  // ---- open loop: evenly spaced arrivals at kOpenRate, 2/3 of the run ----
  const double open_s = opt.trace ? opt.seconds / 2 : opt.seconds * 2 / 3;
  const int64_t n_open = static_cast<int64_t>(kOpenRate * open_s);
  if (opt.trace) {
    default_layer_metrics(r);
    start_trace();
  }
  const auto s0 = svc->stats();
  std::map<int64_t, double> late_by_id;  // id -> submit lateness (s)
  double lag_max = 0.0;
  const double t_open = now_s();
  for (int64_t i = 0; i < n_open; ++i) {
    const double due_at = t_open + static_cast<double>(i) / kOpenRate;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(due_at))));
    const double late = std::max(0.0, now_s() - due_at);
    lag_max = std::max(lag_max, late);
    sf::obs::TraceSpan span("bench", "submit");
    late_by_id[svc->submit(stream.next())] = late;
  }
  {
    sf::obs::TraceSpan span("bench", "wait_all");
    keep(svc->wait_all());
  }
  std::vector<double> lat_ms, queue_ms, feat_ms, wait_ms, fwd_ms;
  for (auto& s : all) {
    s.latency_s = late_by_id[s.resp.id] + s.resp.total_s;
    lat_ms.push_back(s.latency_s * 1e3);
    queue_ms.push_back(s.resp.queue_s * 1e3);
    feat_ms.push_back(s.resp.featurize_s * 1e3);
    wait_ms.push_back(s.resp.batch_wait_s * 1e3);
    fwd_ms.push_back(s.resp.forward_s * 1e3);
  }
  const size_t open_count = all.size();
  r.note("peak RSS after open loop: " + fmt(peak_rss_mb()) + " MB");

  // ---- closed loop: kClosedCallers outstanding until the window ends ----
  auto closed_loop = [&](double seconds) {
    int64_t done_in_window = 0;
    const double start = now_s();
    for (int c = 0; c < kClosedCallers; ++c) svc->submit(stream.next());
    while (now_s() - start < seconds) {
      std::vector<sf::serve::Response> rs = svc->drain();
      if (rs.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      for (size_t k = 0; k < rs.size(); ++k) {
        ++done_in_window;
        sf::obs::TraceSpan span("bench", "submit");
        svc->submit(stream.next());
      }
      keep(std::move(rs));
    }
    const double window = now_s() - start;
    keep(svc->wait_all());
    return static_cast<double>(done_in_window) / window;
  };
  double rps = 0.0;
  if (!opt.trace) {
    rps = closed_loop(opt.seconds / 3);
  } else {
    rps = closed_loop(opt.seconds / 4);  // traced
    const auto events = stop_trace(opt);
    const auto st = svc->stats();
    const double served = static_cast<double>(all.size());
    const double rps_plain = closed_loop(opt.seconds / 4);
    const auto totals = span_totals(events);
    kernel_layer_metrics(r, totals, served);
    r.metric("obs.trace_overhead_pct",
             rps > 0 ? (rps_plain / rps - 1.0) * 100.0 : 0.0, "%");
    r.metric("serve.queue_ms_p50", median(queue_ms), "ms");
    r.metric("serve.featurize_ms_p50", median(feat_ms), "ms");
    r.metric("serve.batch_wait_ms_p50", median(wait_ms), "ms");
    r.metric("serve.forward_ms_p50", median(fwd_ms), "ms");
    const double lookups =
        double(st.cache_hits - s0.cache_hits + st.cache_misses - s0.cache_misses);
    r.metric("serve.cache_hit_ratio",
             lookups > 0 ? double(st.cache_hits - s0.cache_hits) / lookups : 0.0,
             "fraction");
    const int64_t batches = st.batches_dispatched - s0.batches_dispatched;
    r.metric("serve.mean_batch_size",
             batches > 0 ? double(st.requests_dispatched - s0.requests_dispatched) /
                               double(batches)
                         : 0.0,
             "count");
    r.metric("graph.plan_replays", double(st.plan_replays - s0.plan_replays),
             "count");
    r.metric("graph.plan_divergences",
             double(st.plan_divergences - s0.plan_divergences), "count");
    r.metric("serve.generator_lag_ms_max", lag_max * 1e3, "ms");
  }
  r.attempted = static_cast<int64_t>(all.size());
  r.failed = not_ok;
  if (!opt.trace) {
    r.metric("setup_s", setup_s, "s");
    r.metric("samples_per_s", rps, "1/s");
    r.metric("latency_p50_ms", median(lat_ms), "ms");
    r.metric("latency_tail_ms", percentile(lat_ms, kTailQ), "ms");
    r.note("peak RSS: " + fmt(peak_rss_mb()) + " MB");
    r.note("open loop: " + std::to_string(open_count) + " requests at " +
           fmt(kOpenRate) + "/s, latency from due time, tail = p" +
           fmt(kTailQ * 100) + " (" +
           std::to_string(beyond(lat_ms.size(), kTailQ)) +
           " beyond), generator lag max " + fmt(lag_max * 1e3) +
           " ms; closed loop: " + std::to_string(kClosedCallers) +
           " callers, samples_per_s = responses/s");
  }

  // ---- correctness, outside the timed region ----
  r.check(not_ok == 0, "every response ok (" + std::to_string(not_ok) +
                           " rejected or failed)");
  sf::data::SyntheticProteinDataset ds(serve_dataset(opt.seed));
  std::sort(all.begin(), all.end(),
            [](const Served& a, const Served& b) { return a.resp.id < b.resp.id; });
  int direct = 0;
  double worst_lddt = 0.0;
  std::map<int64_t, std::unique_ptr<sf::model::MiniAlphaFold>> nets;
  for (const auto& s : all) {
    if (direct >= kDirectChecks || !s.resp.ok) continue;
    const int64_t b = s.resp.bucket_len;
    auto& net = nets[b];
    if (!net) {
      net = std::make_unique<sf::model::MiniAlphaFold>(
          base.with_crop(b), svc->config().model_seed);
    }
    const sf::data::Batch batch = ds.prepare_batch(s.resp.sample_index, b);
    const auto out = net->forward(batch, svc->config().num_recycles, true);
    r.check(same_tensor(out.positions, s.resp.positions),
            "response " + std::to_string(s.resp.id) +
                " positions equal a direct forward at its bucket crop");
    const double l = lddt_reference(s.resp.positions, batch.target_pos,
                                    batch.residue_mask);
    worst_lddt = std::max(worst_lddt, std::fabs(l - double(s.resp.lddt)));
    ++direct;
  }
  r.check(direct == kDirectChecks && worst_lddt < 1e-5,
          "lDDT-Ca recomputed from its definition matches (max diff " +
              fmt(worst_lddt) + ")");
  std::map<std::pair<int64_t, int64_t>, std::pair<const Served*, const Served*>>
      by_key;  // (index, bucket) -> (a miss, a hit)
  for (const auto& s : all) {
    if (!s.resp.ok) continue;
    auto& e = by_key[{s.resp.sample_index, s.resp.bucket_len}];
    (s.resp.cache_hit ? e.second : e.first) = &s;
  }
  int64_t pairs = 0, mismatched = 0;
  for (const auto& [key, e] : by_key) {
    if (!e.first || !e.second) continue;
    ++pairs;
    mismatched += same_tensor(e.first->resp.positions, e.second->resp.positions)
                      ? 0 : 1;
  }
  r.check(pairs > 0 && mismatched == 0,
          "cache hits return the same positions as misses (" +
              std::to_string(pairs) + " sequences compared)");
}

}  // namespace pb
