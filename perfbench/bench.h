// Shared pieces of the end-to-end benchmark: options, the result record
// printed as the last stdout line, timing statistics, and the analysis of
// the tracer's spans into per-layer self times.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace pb {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path of a traced run
};

/// Monotonic wall clock in seconds.
double now_s();

/// Median (mean of the two middle values for an even count).
double median(std::vector<double> v);

/// Mean of the middle half of the samples (those ranked from n/4 to
/// 3n/4): a throughput figure that a few stalled operations do not move.
double interquartile_mean(std::vector<double> v);

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it. q in (0, 1].
double percentile(std::vector<double> v, double q);

/// Shortest decimal form of `v` for notes.
std::string fmt(double v);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Everything a run reports. Checks append to `failures`; any failure
/// makes `correct` false. `attempted` / `failed` count the workload's
/// operations (steps, requests, probes).
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a correctness check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);
  /// Informational line printed before the JSON ("# key: value").
  void note(const std::string& text);

  int64_t attempted = 0;
  int64_t failed = 0;

  bool correct() const { return failures_.empty(); }
  /// Prints the notes, the failed checks, then the one-line JSON object.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  int64_t checks_ = 0;
};

/// Samples of `n` that lie beyond the nearest-rank percentile q. Each
/// workload fixes its tail level so that about ten are.
int64_t beyond(size_t n, double q);

/// Median of repeated set-up: runs `setup` `reps` times and returns the
/// median wall time in seconds. Before every repetition but the first,
/// `teardown` (untimed) drops the previous repetition's state, and the
/// heap's free pages go back to the system, so that the discarded copies
/// do not inflate the run's peak resident memory. The last repetition's
/// state is kept by the callbacks' captures.
double timed_setup(int reps, const std::function<void()>& setup,
                   const std::function<void()>& teardown);

// ---- Trace analysis -------------------------------------------------------

/// Inclusive time, self time (inclusive minus the time direct child spans
/// cover, on the same thread) and call count of one span name.
struct SpanTotals {
  double incl_ms = 0.0;
  double self_ms = 0.0;
  int64_t calls = 0;
};

/// Per "category/name" totals over every thread's spans.
std::map<std::string, SpanTotals> span_totals(
    const std::vector<sf::obs::TraceEvent>& events);

/// Sum over `keys` ("category/name") of self time and calls.
SpanTotals sum_spans(const std::map<std::string, SpanTotals>& totals,
                     const std::vector<std::string>& keys);

/// Time inside spans named `outer` ("category/name") that no span of
/// category `covered_category` on the same thread covers, in ms.
double uncovered_ms(const std::vector<sf::obs::TraceEvent>& events,
                    const std::string& outer,
                    const std::string& covered_category);

/// Every per-layer metric the benchmark defines, set to zero. A workload
/// overwrites those it exercises; the others stay zero (no such work ran).
void default_layer_metrics(Result& r);

/// Kernel-layer self times and call counts per unit of work (`units` =
/// optimizer steps or served requests) from a traced phase.
void kernel_layer_metrics(Result& r,
                          const std::map<std::string, SpanTotals>& totals,
                          double units);

/// Registry deltas of tensor allocation over a traced phase.
struct AllocSnapshot {
  int64_t count = 0;
  int64_t bytes = 0;
  static AllocSnapshot take();
};
void alloc_layer_metrics(Result& r, const AllocSnapshot& before,
                         const AllocSnapshot& after, double steps);

/// Turns tracing on with an empty buffer.
void start_trace();
/// Turns tracing off, writes the Chrome trace and returns the events.
std::vector<sf::obs::TraceEvent> stop_trace(const Options& opt);

/// Host description for the run's notes: SIMD tier, cores, cache sizes.
std::string host_fingerprint();

// ---- Workloads ------------------------------------------------------------

void run_step_default(const Options& opt, Result& r);
void run_step_dap4(const Options& opt, Result& r);
void run_ddp_pipeline(const Options& opt, Result& r);
void run_serve_mix(const Options& opt, Result& r);

/// Direct kernel calls at default-config shapes -> achieved GFLOP/s and
/// GB/s (`kernels.*.gflops`, `kernels.layernorm.gbps`).
void kernel_throughput_metrics(Result& r);

}  // namespace pb
