// Training workloads: step_default, step_dap4 and ddp_pipeline.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include "autograd/var.h"
#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dap/sharded_stack.h"
#include "data/loader.h"
#include "data/protein_sample.h"
#include "model/alphafold.h"
#include "train/data_parallel.h"
#include "train/trainer.h"

namespace pb {
namespace {

using sf::data::Batch;

constexpr uint64_t kModelSeed = 7;  // weight init, fixed in every workload
constexpr int kStepBatches = 8;     // featurized crops the step loops cycle
constexpr size_t kWarmupSteps = 2;  // steps run as part of set-up
constexpr int kSetupReps = 5;       // set-up repetitions; median reported

/// Bitwise copy of every parameter value, in ParamStore order.
std::vector<std::vector<float>> param_bits(const sf::model::ParamStore& ps) {
  std::vector<std::vector<float>> out;
  for (const auto& p : ps.all()) {
    const auto s = p.value().span();
    out.emplace_back(s.begin(), s.end());
  }
  return out;
}

bool same_bits(const std::vector<std::vector<float>>& a,
               const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)))
      return false;
  }
  return true;
}

/// The step workloads' inputs: crops of the default ModelConfig shape from
/// a dataset seeded by --seed, featurized during set-up.
std::vector<Batch> featurize_step_batches(uint64_t seed) {
  sf::data::DatasetConfig dc;
  dc.num_samples = kStepBatches;
  dc.seed = seed;
  sf::data::SyntheticProteinDataset ds(dc);
  std::vector<Batch> out;
  for (int i = 0; i < kStepBatches; ++i) out.push_back(ds.prepare_batch(i));
  return out;
}

struct StepLog {
  std::vector<double> step_s;
  int64_t nonfinite = 0;
};

/// Runs train_step over `batches` (cycling from `cursor`) until `seconds`
/// of step time have passed. With tracing on, each call is wrapped in a
/// "bench/train_step" span.
StepLog timed_steps(sf::train::Trainer& trainer,
                    const std::vector<Batch>& batches, size_t& cursor,
                    double seconds) {
  StepLog log;
  double busy = 0.0;
  while (busy < seconds) {
    const Batch& b = batches[cursor++ % batches.size()];
    const double t0 = now_s();
    sf::train::StepResult res;
    {
      sf::obs::TraceSpan span("bench", "train_step");
      res = trainer.train_step(b);
    }
    const double dt = now_s() - t0;
    busy += dt;
    log.step_s.push_back(dt);
    if (!std::isfinite(res.loss) || !std::isfinite(res.grad_norm) ||
        res.skipped)
      ++log.nonfinite;
  }
  return log;
}

/// Tail percentile of the step workloads: at ~0.6 s per step a 25 s run
/// times ~40 steps, and p70 is the highest level with 10 of them beyond.
constexpr double kStepTailQ = 0.7;

/// samples_per_s counts one sample per step over the interquartile mean
/// step time. The plain mean (steps / busy time) let a few steps stalled
/// by other load on a shared host move a run's figure by more than the
/// median moved; see README.md.
void step_end_to_end(Result& r, const StepLog& log, double setup_s) {
  std::vector<double> ms;
  for (double s : log.step_s) ms.push_back(s * 1e3);
  r.metric("setup_s", setup_s, "s");
  r.metric("samples_per_s", 1e3 / interquartile_mean(ms), "1/s");
  r.metric("latency_p50_ms", median(ms), "ms");
  r.metric("latency_tail_ms", percentile(ms, kStepTailQ), "ms");
  r.note("peak RSS: " + fmt(peak_rss_mb()) + " MB");
  r.note("latency = optimizer step wall time over " +
         std::to_string(ms.size()) + " steps; tail = p" +
         fmt(kStepTailQ * 100) + " (" +
         std::to_string(beyond(ms.size(), kStepTailQ)) +
         " steps beyond); step ms min " + fmt(percentile(ms, 0.0)) +
         " max " + fmt(percentile(ms, 1.0)));
}

/// Median step time of an untraced and a traced phase -> overhead in %.
void trace_overhead(Result& r, const StepLog& plain, const StepLog& traced) {
  const double a = median(plain.step_s), b = median(traced.step_s);
  r.metric("obs.trace_overhead_pct", a > 0 ? (b / a - 1.0) * 100.0 : 0.0,
           "%");
}

void prep_metrics(Result& r, const std::vector<double>& prep_s) {
  std::vector<double> ms;
  double mx = 0.0;
  for (double s : prep_s) {
    ms.push_back(s * 1e3);
    mx = std::max(mx, s * 1e3);
  }
  r.metric("data.prep.ms_p50", median(ms), "ms");
  r.metric("data.prep.ms_max", mx, "ms");
}

/// Directional finite difference of the loss at one batch and one
/// recycle: (L(w + e v) - L(w - e v)) / 2e must match <dL/dw, v>, with v
/// half the normalized gradient and half a seeded random direction.
void finite_difference_check(Result& r, const Batch& batch, uint64_t seed) {
  sf::model::MiniAlphaFold net(sf::model::ModelConfig{}, kModelSeed);
  auto params = net.params().all();
  auto out = net.forward(batch, 1, /*compute_loss=*/true);
  sf::autograd::backward(out.loss);
  double gnorm2 = 0.0, rnorm2 = 0.0;
  sf::Rng rng(seed * 7919 + 17);
  std::vector<std::vector<double>> rnd;
  for (const auto& p : params) {
    const sf::Tensor g = p.grad();
    for (int64_t i = 0; i < g.numel(); ++i) gnorm2 += double(g.at(i)) * g.at(i);
    std::vector<double> v(static_cast<size_t>(p.numel()));
    for (double& x : v) {
      x = rng.normal();
      rnorm2 += x * x;
    }
    rnd.push_back(std::move(v));
  }
  const double gn = std::sqrt(gnorm2), rn = std::sqrt(rnorm2);
  double analytic = 0.0;
  std::vector<std::vector<float>> dir;
  for (size_t k = 0; k < params.size(); ++k) {
    const sf::Tensor g = params[k].grad();
    std::vector<float> v(rnd[k].size());
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>((g.at(int64_t(i)) / gn + rnd[k][i] / rn) /
                                std::sqrt(2.0));
      analytic += double(g.at(int64_t(i))) * v[i];
    }
    dir.push_back(std::move(v));
  }
  const auto base = param_bits(net.params());
  auto loss_at = [&](double eps) {
    for (size_t k = 0; k < params.size(); ++k) {
      float* w = params[k].mutable_value().data();
      for (size_t i = 0; i < dir[k].size(); ++i)
        w[i] = static_cast<float>(base[k][i] + eps * dir[k][i]);
    }
    sf::autograd::NoGradGuard ng;
    return double(net.forward(batch, 1, true).loss.value().at(0));
  };
  const double eps = 1e-3;
  const double fd = (loss_at(eps) - loss_at(-eps)) / (2 * eps);
  const double rel = std::fabs(fd - analytic) / std::max(1e-12, std::fabs(analytic));
  r.note("finite difference: fd=" + fmt(fd) + " analytic=" + fmt(analytic) +
         " rel_err=" + fmt(rel));
  r.check(std::isfinite(fd) && rel < 0.05,
          "directional finite difference of the loss matches <grad, v>");
}

// ---- step_default / step_dap4 ---------------------------------------------

struct StepSetup {
  std::vector<Batch> batches;
  std::unique_ptr<sf::model::MiniAlphaFold> net;
  std::unique_ptr<sf::train::Trainer> trainer;
};

/// Every training step runs 2 recycles (the default maximum). With the
/// default 1..2 draw the step time is bimodal (~250 vs ~325 ms on a 4-core
/// AVX2 host) and the median lands on whichever mode holds the majority of
/// the draws that fit in the window, so it jumps between runs.
constexpr int64_t kRecycles = 2;

/// One intra-op thread everywhere. On the 4-vCPU host the benchmark was
/// tuned on, a default-config step at 4 intra-op threads took 337-692 ms
/// over six 8 s runs (at 1 thread: 484-568 ms), far too wide to resolve a
/// 25% change; see README.md.
sf::train::TrainConfig step_train_config(int dap_world) {
  sf::train::TrainConfig tc;
  tc.min_recycles = kRecycles;
  tc.max_recycles = kRecycles;
  tc.dap_world = dap_world;
  tc.num_threads = 1;
  return tc;
}

void run_step_workload(const Options& opt, Result& r, int dap_world) {
  // Set-up: featurize the crops, build model and trainer, and run the
  // warm-up steps that materialize gradient buffers and lazy state.
  StepSetup st;
  size_t cursor = 0;
  auto setup = [&] {
    st.batches = featurize_step_batches(opt.seed);
    st.net = std::make_unique<sf::model::MiniAlphaFold>(
        sf::model::ModelConfig{}, kModelSeed);
    st.trainer = std::make_unique<sf::train::Trainer>(
        *st.net, step_train_config(dap_world));
    for (cursor = 0; cursor < kWarmupSteps; ++cursor) {
      st.trainer->train_step(st.batches[cursor]);
    }
  };
  auto teardown = [&] {
    st.trainer.reset();  // the trainer refers to the model: drop it first
    st.net.reset();
    st.batches.clear();
  };
  const double setup_s = timed_setup(kSetupReps, setup, teardown);
  r.note(std::string("threads: ") +
         (dap_world > 0 ? std::to_string(dap_world) + " DAP ranks x 1 intra-op"
                        : "1 intra-op"));
  const auto warm_params = param_bits(st.net->params());

  StepLog log;
  if (!opt.trace) {
    log = timed_steps(*st.trainer, st.batches, cursor, opt.seconds);
    step_end_to_end(r, log, setup_s);
  } else {
    default_layer_metrics(r);
    const StepLog plain =
        timed_steps(*st.trainer, st.batches, cursor, opt.seconds / 2);
    sf::dap::ShardedEvoformer* dap = st.trainer->dap_executor();
    if (dap) dap->reset_stats();
    const auto comm0 = dap ? dap->comm_stats() : sf::dap::Communicator::Stats{};
    const AllocSnapshot a0 = AllocSnapshot::take();
    start_trace();
    log = timed_steps(*st.trainer, st.batches, cursor, opt.seconds / 2);
    const AllocSnapshot a1 = AllocSnapshot::take();
    const auto events = stop_trace(opt);
    const double steps = static_cast<double>(log.step_s.size());
    const auto totals = span_totals(events);
    trace_overhead(r, plain, log);
    kernel_layer_metrics(r, totals, steps);
    alloc_layer_metrics(r, a0, a1, steps);
    r.metric("train.forward_ms_per_step",
             sum_spans(totals, {"train/forward"}).incl_ms / steps, "ms");
    r.metric("train.backward_ms_per_step",
             sum_spans(totals, {"train/backward"}).incl_ms / steps, "ms");
    r.metric("train.optimizer_ms_per_step",
             sum_spans(totals, {"train/optimizer"}).incl_ms / steps, "ms");
    r.metric("autograd.unattributed_ms_per_step",
             uncovered_ms(events, "bench/train_step", "kernel") / steps, "ms");
    std::vector<double> prep;
    for (const auto& b : st.batches) prep.push_back(b.prep_seconds);
    prep_metrics(r, prep);
    if (dap) {
      const auto s = dap->stats();
      const auto c = dap->comm_stats();
      r.metric("dap.exchange_blocked_ms_per_step",
               s.blocked_wait_s * 1e3 / steps, "ms");
      r.metric("dap.overlap_fraction", s.overlap_fraction(), "fraction");
      r.metric("dap.comm_bytes_per_step",
               double(c.total_bytes() - comm0.total_bytes()) / steps, "bytes");
      r.metric("dap.exchanges_per_step", double(s.async_exchanges) / steps,
               "count");
      r.metric("dap.backward_ms_per_step",
               sum_spans(totals, {"train/backward"}).incl_ms / steps, "ms");
    } else {
      kernel_throughput_metrics(r);
    }
  }
  r.attempted = static_cast<int64_t>(log.step_s.size());
  r.failed = log.nonfinite;

  // ---- correctness, outside the timed region ----
  r.check(log.nonfinite == 0, "every loss and gradient norm is finite (" +
                                  std::to_string(log.nonfinite) + " not)");
  if (dap_world == 0) {
    finite_difference_check(r, st.batches[0], opt.seed);
  } else {
    // Unsharded reference over the same warm-up batches and seeds.
    sf::model::MiniAlphaFold ref(sf::model::ModelConfig{}, kModelSeed);
    sf::train::Trainer ref_trainer(ref, step_train_config(0));
    for (size_t i = 0; i < kWarmupSteps; ++i) {
      ref_trainer.train_step(st.batches[i]);
    }
    r.check(same_bits(param_bits(ref.params()), warm_params),
            "DAP-" + std::to_string(dap_world) +
                " parameters bitwise equal to an unsharded Trainer after " +
                std::to_string(kWarmupSteps) + " steps");
  }
}

// ---- ddp_pipeline ---------------------------------------------------------

constexpr int kDdpWorld = 2;
constexpr int kStepsPerRound = 8;  // one loader epoch of 2 x 8 samples

/// The default ModelConfig, as in the step workloads. A small model (R=24,
/// one Evoformer block, ~22 ms steps) made the loader and the exchange a
/// larger share of the step, but its step time drifted 21-26 ms within one
/// run and its samples/s spread 32% over ten seeds on the 4-vCPU host.
sf::model::ModelConfig ddp_model() { return sf::model::ModelConfig{}; }

sf::data::DatasetConfig ddp_dataset(uint64_t seed) {
  sf::data::DatasetConfig dc;  // default long-tailed length / depth mix
  dc.num_samples = 1 << 16;
  dc.crop_len = ddp_model().crop_len;
  dc.msa_rows = ddp_model().msa_rows;
  dc.seed = seed;
  return dc;
}

sf::train::TrainConfig ddp_train_config() {
  sf::train::TrainConfig tc;
  tc.min_recycles = kRecycles;
  tc.max_recycles = kRecycles;
  tc.num_threads = 1;
  tc.overlap_grad_comm = true;
  return tc;
}

std::vector<std::vector<float>> replica_bits(sf::train::DataParallelTrainer& t,
                                             int rank) {
  return param_bits(t.replica(rank).params());
}

bool lockstep(sf::train::DataParallelTrainer& t) {
  const auto r0 = replica_bits(t, 0);
  for (int r = 1; r < t.world_size(); ++r) {
    if (!same_bits(r0, replica_bits(t, r))) return false;
  }
  return true;
}

/// NaN in rank 1's batch: the step must be reported skipped, leave every
/// parameter bitwise unchanged and keep the replicas in lockstep.
bool fault_probe(const std::vector<Batch>& good, std::string& why) {
  sf::train::DataParallelTrainer probe(ddp_model(), ddp_train_config(),
                                       kDdpWorld, kModelSeed);
  std::vector<Batch> batches = {good[0], good[1]};
  batches[1].msa_feat = good[1].msa_feat.clone();
  batches[1].msa_feat.at(0) = std::nanf("");
  const auto before = replica_bits(probe, 0);
  const auto res = probe.train_step(batches);
  const bool unchanged = same_bits(before, replica_bits(probe, 0)) &&
                         same_bits(before, replica_bits(probe, 1));
  const bool locked = lockstep(probe);
  why = std::string("skipped=") + (res.skipped ? "1" : "0") +
        " params_unchanged=" + (unchanged ? "1" : "0") +
        " lockstep=" + (locked ? "1" : "0");
  return res.skipped && unchanged && locked;
}

}  // namespace

void run_step_default(const Options& opt, Result& r) {
  run_step_workload(opt, r, 0);
}

void run_step_dap4(const Options& opt, Result& r) {
  run_step_workload(opt, r, 4);
}

void run_ddp_pipeline(const Options& opt, Result& r) {
  // Set-up: dataset metadata, the replicas, and one warm-up step on the two
  // shortest of the first 64 samples (cheap to featurize on every seed).
  sf::set_num_threads(1);  // DataParallelTrainer leaves the thread knob alone
  std::unique_ptr<sf::data::SyntheticProteinDataset> ds;
  std::unique_ptr<sf::train::DataParallelTrainer> ddp;
  auto setup = [&] {
    ds = std::make_unique<sf::data::SyntheticProteinDataset>(
        ddp_dataset(opt.seed));
    ddp = std::make_unique<sf::train::DataParallelTrainer>(
        ddp_model(), ddp_train_config(), kDdpWorld, kModelSeed);
    std::vector<sf::data::SampleMeta> first(ds->all_meta().begin(),
                                            ds->all_meta().begin() + 64);
    std::sort(first.begin(), first.end(), [](const auto& a, const auto& b) {
      return a.seq_len * a.msa_depth < b.seq_len * b.msa_depth;
    });
    std::vector<Batch> warm = {ds->prepare_batch(first[0].index),
                               ds->prepare_batch(first[1].index)};
    ddp->train_step(warm);
  };
  auto teardown = [&] {
    ddp.reset();
    ds.reset();
  };
  const double setup_s = timed_setup(kSetupReps, setup, teardown);
  sf::data::LoaderConfig lc;  // 2 workers, ready-first, 4 in flight
  r.note("threads: 2 DDP ranks x 1 intra-op + " +
         std::to_string(lc.num_workers) + " loader workers");

  const int64_t per_round = int64_t(kStepsPerRound) * kDdpWorld;
  int64_t round = 0;
  std::vector<double> untraced_step_s, traced_step_s, prep_s;
  double active_s = 0.0;
  int64_t probes_failed = 0, lockstep_breaks = 0, loader_breaks = 0;
  std::string probe_why;
  std::vector<Batch> first_round;

  std::vector<sf::obs::TraceEvent> events;
  sf::dap::Communicator::Stats comm0{};
  double traced_wait_s = 0.0;
  if (opt.trace) default_layer_metrics(r);

  // One round = one loader epoch of kStepsPerRound steps, then the fault
  // probe. Whole rounds run until --seconds of pipeline time have passed
  // (half untraced, half traced in a traced run).
  auto run_rounds = [&](double seconds, bool traced) {
    const double start_active = active_s;
    while (active_s - start_active < seconds) {
      const int64_t base = round * per_round;
      const double t_round = now_s();
      sf::data::PrefetchLoader loader(
          [&, base](int64_t i) { return ds->prepare_batch(base + i); },
          per_round, lc);
      std::vector<Batch> got;
      double checks_s = 0.0;
      for (int s = 0; s < kStepsPerRound; ++s) {
        std::vector<Batch> batches;
        const double tw = now_s();
        for (int k = 0; k < kDdpWorld; ++k) {
          sf::obs::TraceSpan span("bench", "loader_next");
          batches.push_back(loader.next());
        }
        const double t0 = now_s();
        {
          sf::obs::TraceSpan span("bench", "train_step");
          ddp->train_step(batches);
        }
        const double t1 = now_s();
        if (traced) {
          traced_wait_s += t0 - tw;
          traced_step_s.push_back(t1 - t0);
        } else {
          untraced_step_s.push_back(t1 - t0);
        }
        if (!lockstep(*ddp)) ++lockstep_breaks;
        for (auto& b : batches) got.push_back(b);
        checks_s += now_s() - t1;
      }
      active_s += now_s() - t_round - checks_s;
      const auto st = loader.stats_snapshot();
      std::vector<int64_t> order = st.yield_order;
      std::sort(order.begin(), order.end());
      bool once = static_cast<int64_t>(order.size()) == per_round;
      for (int64_t i = 0; once && i < per_round; ++i) {
        once = order[size_t(i)] == base + i;  // Batch::index is the dataset's
      }
      if (!once) ++loader_breaks;
      for (double p : st.prep_seconds) prep_s.push_back(p);
      if (first_round.empty()) first_round = got;
      // The probe's step on a fresh trainer is not pipeline work: keep it
      // out of the traced window.
      if (traced) sf::obs::set_trace_enabled(false);
      if (!fault_probe(got, probe_why)) ++probes_failed;
      if (traced) sf::obs::set_trace_enabled(true);
      ++round;
    }
  };

  if (!opt.trace) {
    run_rounds(opt.seconds, false);
  } else {
    run_rounds(opt.seconds / 2, false);
    comm0 = ddp->comm_stats();
    start_trace();
    run_rounds(opt.seconds / 2, true);
    events = stop_trace(opt);
  }

  const int64_t steps_total = round * kStepsPerRound;
  r.attempted = steps_total + round;  // every step plus one probe per round
  r.failed = probes_failed;
  r.note("rounds: " + std::to_string(round) + " x (" +
         std::to_string(kStepsPerRound) + " steps + 1 fault probe); probe: " +
         probe_why);

  if (!opt.trace) {
    std::vector<double> ms;
    for (double s : untraced_step_s) ms.push_back(s * 1e3);
    r.metric("setup_s", setup_s, "s");
    r.metric("samples_per_s",
             static_cast<double>(steps_total * kDdpWorld) / active_s, "1/s");
    r.metric("latency_p50_ms", median(ms), "ms");
    r.metric("latency_tail_ms", percentile(ms, kStepTailQ), "ms");
    r.note("peak RSS: " + fmt(peak_rss_mb()) + " MB");
    r.note("latency = DataParallelTrainer::train_step wall time over " +
           std::to_string(ms.size()) + " steps; tail = p" +
           fmt(kStepTailQ * 100) + " (" +
           std::to_string(beyond(ms.size(), kStepTailQ)) + " steps beyond)");
  } else {
    const double steps = static_cast<double>(traced_step_s.size());
    const auto totals = span_totals(events);
    const double a = median(untraced_step_s), b = median(traced_step_s);
    r.metric("obs.trace_overhead_pct", a > 0 ? (b / a - 1.0) * 100.0 : 0.0,
             "%");
    kernel_layer_metrics(r, totals, steps);
    r.metric("data.loader.wait_ms_per_step", traced_wait_s * 1e3 / steps,
             "ms");
    prep_metrics(r, prep_s);
    const auto c = ddp->comm_stats();
    const SpanTotals exposed = sum_spans(
        totals, {"dap/all_reduce_async_wait", "dap/all_reduce"});
    r.metric("train.ddp.exposed_comm_ms_per_step",
             exposed.incl_ms / (steps * kDdpWorld), "ms");
    r.metric("train.ddp.comm_bytes_per_step",
             double(c.total_bytes() - comm0.total_bytes()) / steps, "bytes");
    r.metric("train.ddp.collectives_per_step",
             double(c.collectives - comm0.collectives) / steps, "count");
  }

  // ---- correctness, outside the timed region ----
  r.check(lockstep_breaks == 0, "replicas bitwise identical after every step");
  r.check(loader_breaks == 0, "loader yields every index exactly once");
  {
    // First update of a fresh DDP pair == one accumulated Trainer step over
    // the same two batches.
    sf::train::DataParallelTrainer fresh(ddp_model(), ddp_train_config(),
                                         kDdpWorld, kModelSeed);
    std::vector<Batch> two = {first_round[0], first_round[1]};
    fresh.train_step(two);
    sf::model::MiniAlphaFold ref(ddp_model(), kModelSeed);
    sf::train::Trainer trainer(ref, ddp_train_config());
    trainer.train_step_accumulated(two);
    r.check(same_bits(replica_bits(fresh, 0), param_bits(ref.params())),
            "first DDP update equals Trainer::train_step_accumulated");
  }
}

}  // namespace pb
