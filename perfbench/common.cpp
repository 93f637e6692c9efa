#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/simd.h"
#include "obs/metrics.h"
#include "tensor/allocator.h"

namespace pb {

double now_s() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

int64_t beyond(size_t n, double q) {
  return static_cast<int64_t>(n) -
         static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double timed_setup(int reps, const std::function<void()>& setup,
                   const std::function<void()>& teardown) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) {
      teardown();
      malloc_trim(0);
    }
    const double t0 = now_s();
    setup();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Result::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

void Result::note(const std::string& text) { notes_.push_back(text); }

namespace {
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void Result::print() const {
  for (const auto& n : notes_) std::cout << "# " << n << "\n";
  std::cout << "# checks: " << checks_ << " made, " << failures_.size()
            << " failed\n";
  for (const auto& f : failures_) std::cout << "# CHECK FAILED: " << f << "\n";
  std::ostringstream js;
  js << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) js << ", ";
    first = false;
    js << "\"" << name << "\": {\"value\": " << json_number(vu.first)
       << ", \"unit\": \"" << vu.second << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

// ---- Trace analysis -------------------------------------------------------

namespace {
std::string key_of(const sf::obs::TraceEvent& e) {
  return std::string(e.category) + "/" + e.name;
}

/// Complete spans ordered by (thread, start, longest first), so that on
/// each thread a parent always precedes the spans it encloses.
std::vector<const sf::obs::TraceEvent*> ordered_spans(
    const std::vector<sf::obs::TraceEvent>& events) {
  std::vector<const sf::obs::TraceEvent*> out;
  for (const auto& e : events) {
    if (e.dur_us >= 0) out.push_back(&e);
  }
  std::sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    if (a->track != b->track) return a->track < b->track;
    if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
    return a->dur_us > b->dur_us;
  });
  return out;
}

/// Calls `fn(event, child_covered_us)` for every complete span, where the
/// second argument is the time its direct children cover.
template <typename Fn>
void walk_spans(const std::vector<sf::obs::TraceEvent>& events, Fn&& fn) {
  struct Open {
    const sf::obs::TraceEvent* ev;
    double end;
    double child_us;
  };
  std::vector<Open> stack;
  uint32_t track = 0;
  auto close_until = [&](double t) {
    while (!stack.empty() && stack.back().end <= t) {
      Open o = stack.back();
      stack.pop_back();
      if (!stack.empty()) stack.back().child_us += o.ev->dur_us;
      fn(*o.ev, o.child_us);
    }
  };
  for (const sf::obs::TraceEvent* e : ordered_spans(events)) {
    if (e->track != track) {
      close_until(1e300);
      track = e->track;
    }
    close_until(e->ts_us);
    stack.push_back({e, e->ts_us + e->dur_us, 0.0});
  }
  close_until(1e300);
}
}  // namespace

std::map<std::string, SpanTotals> span_totals(
    const std::vector<sf::obs::TraceEvent>& events) {
  std::map<std::string, SpanTotals> out;
  walk_spans(events, [&](const sf::obs::TraceEvent& e, double child_us) {
    SpanTotals& t = out[key_of(e)];
    t.incl_ms += e.dur_us * 1e-3;
    t.self_ms += std::max(0.0, e.dur_us - child_us) * 1e-3;
    t.calls += 1;
  });
  return out;
}

SpanTotals sum_spans(const std::map<std::string, SpanTotals>& totals,
                     const std::vector<std::string>& keys) {
  SpanTotals s;
  for (const auto& k : keys) {
    auto it = totals.find(k);
    if (it == totals.end()) continue;
    s.incl_ms += it->second.incl_ms;
    s.self_ms += it->second.self_ms;
    s.calls += it->second.calls;
  }
  return s;
}

double uncovered_ms(const std::vector<sf::obs::TraceEvent>& events,
                    const std::string& outer,
                    const std::string& covered_category) {
  // Per thread: each outer span minus the union of covered-category spans
  // inside it. Spans on one thread nest, so the union is the sum of the
  // covered spans that have no covered ancestor.
  double total_us = 0.0;
  uint32_t track = 0;
  const sf::obs::TraceEvent* cur = nullptr;
  double cur_end = -1.0, covered_us = 0.0, covered_until = -1.0;
  auto flush = [&] {
    if (cur != nullptr) total_us += std::max(0.0, cur->dur_us - covered_us);
    cur = nullptr;
  };
  for (const sf::obs::TraceEvent* ep : ordered_spans(events)) {
    const sf::obs::TraceEvent& e = *ep;
    if (e.track != track || (cur != nullptr && e.ts_us >= cur_end)) {
      flush();
      track = e.track;
    }
    if (key_of(e) == outer) {
      flush();
      cur = &e;
      cur_end = e.ts_us + e.dur_us;
      covered_us = 0.0;
      covered_until = -1.0;
      continue;
    }
    if (cur != nullptr && covered_category == e.category &&
        e.ts_us >= covered_until) {
      const double end = std::min(e.ts_us + e.dur_us, cur_end);
      covered_us += std::max(0.0, end - e.ts_us);
      covered_until = e.ts_us + e.dur_us;
    }
  }
  flush();
  return total_us * 1e-3;
}

void default_layer_metrics(Result& r) {
  static const std::pair<const char*, const char*> kLayer[] = {
      {"kernels.mha.ms_per_step", "ms"},
      {"kernels.mha.calls_per_step", "count"},
      {"kernels.gemm.ms_per_step", "ms"},
      {"kernels.gemm.calls_per_step", "count"},
      {"kernels.layernorm.ms_per_step", "ms"},
      {"kernels.softmax.ms_per_step", "ms"},
      {"kernels.optimizer.ms_per_step", "ms"},
      {"kernels.mha_fwd.gflops", "GFLOP/s"},
      {"kernels.mha_bwd.gflops", "GFLOP/s"},
      {"kernels.gemm.gflops", "GFLOP/s"},
      {"kernels.layernorm.gbps", "GB/s"},
      {"train.forward_ms_per_step", "ms"},
      {"train.backward_ms_per_step", "ms"},
      {"train.optimizer_ms_per_step", "ms"},
      {"autograd.unattributed_ms_per_step", "ms"},
      {"tensor.allocs_per_step", "count"},
      {"tensor.alloc_bytes_per_step", "bytes"},
      {"tensor.peak_bytes", "bytes"},
      {"dap.exchange_blocked_ms_per_step", "ms"},
      {"dap.overlap_fraction", "fraction"},
      {"dap.comm_bytes_per_step", "bytes"},
      {"dap.exchanges_per_step", "count"},
      {"dap.backward_ms_per_step", "ms"},
      {"data.loader.wait_ms_per_step", "ms"},
      {"data.prep.ms_p50", "ms"},
      {"data.prep.ms_max", "ms"},
      {"train.ddp.exposed_comm_ms_per_step", "ms"},
      {"train.ddp.comm_bytes_per_step", "bytes"},
      {"train.ddp.collectives_per_step", "count"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.featurize_ms_p50", "ms"},
      {"serve.batch_wait_ms_p50", "ms"},
      {"serve.forward_ms_p50", "ms"},
      {"serve.cache_hit_ratio", "fraction"},
      {"serve.mean_batch_size", "count"},
      {"graph.plan_replays", "count"},
      {"graph.plan_divergences", "count"},
      {"serve.generator_lag_ms_max", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  for (const auto& [name, unit] : kLayer) r.metric(name, 0.0, unit);
}

void kernel_layer_metrics(Result& r,
                          const std::map<std::string, SpanTotals>& totals,
                          double units) {
  const double inv = units > 0 ? 1.0 / units : 0.0;
  const SpanTotals mha = sum_spans(
      totals, {"kernel/mha_fwd_flash", "kernel/mha_bwd_flash",
               "kernel/mha_fwd_naive", "kernel/mha_bwd_naive"});
  const SpanTotals gemm = sum_spans(
      totals, {"kernel/gemm", "kernel/gemm_batched",
               "kernel/qkv_gemm_separate", "kernel/qkv_gemm_batched"});
  const SpanTotals ln = sum_spans(
      totals, {"kernel/ln_fwd_fused", "kernel/ln_bwd_fused",
               "kernel/ln_fwd_naive", "kernel/ln_bwd_naive"});
  const SpanTotals sm =
      sum_spans(totals, {"kernel/softmax_fwd", "kernel/softmax_bwd"});
  const SpanTotals opt = sum_spans(
      totals, {"kernel/fused_adam_swa", "kernel/grad_norm_bucketed",
               "kernel/grad_norm_concat"});
  r.metric("kernels.mha.ms_per_step", mha.self_ms * inv, "ms");
  r.metric("kernels.mha.calls_per_step", mha.calls * inv, "count");
  r.metric("kernels.gemm.ms_per_step", gemm.self_ms * inv, "ms");
  r.metric("kernels.gemm.calls_per_step", gemm.calls * inv, "count");
  r.metric("kernels.layernorm.ms_per_step", ln.self_ms * inv, "ms");
  r.metric("kernels.softmax.ms_per_step", sm.self_ms * inv, "ms");
  r.metric("kernels.optimizer.ms_per_step", opt.self_ms * inv, "ms");
}

AllocSnapshot AllocSnapshot::take() {
  auto& reg = sf::obs::Registry::global();
  return {reg.counter("tensor.alloc.count").value(),
          reg.counter("tensor.alloc.bytes").value()};
}

void alloc_layer_metrics(Result& r, const AllocSnapshot& before,
                         const AllocSnapshot& after, double steps) {
  const double inv = steps > 0 ? 1.0 / steps : 0.0;
  r.metric("tensor.allocs_per_step",
           static_cast<double>(after.count - before.count) * inv, "count");
  r.metric("tensor.alloc_bytes_per_step",
           static_cast<double>(after.bytes - before.bytes) * inv, "bytes");
  r.metric("tensor.peak_bytes",
           static_cast<double>(sf::heap_alloc_stats().peak_bytes), "bytes");
}

void start_trace() {
  sf::obs::reset();
  sf::reset_heap_alloc_peak();
  sf::obs::set_trace_enabled(true);
}

std::vector<sf::obs::TraceEvent> stop_trace(const Options& opt) {
  sf::obs::set_trace_enabled(false);
  if (!opt.trace_out.empty()) sf::obs::write_chrome_trace(opt.trace_out);
  return sf::obs::snapshot();
}

std::string host_fingerprint() {
  const auto& ci = sf::simd::cache_info();
  std::ostringstream os;
  os << "host: simd=" << sf::simd::tier_name(sf::simd::active_tier())
     << " cores=" << std::thread::hardware_concurrency()
     << " l1d=" << ci.l1d_bytes / 1024 << "KiB l2=" << ci.l2_bytes / 1024
     << "KiB";
  return os.str();
}

}  // namespace pb
