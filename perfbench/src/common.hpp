#pragma once

/// \file common.hpp
/// Shared pieces of the perfbench driver: options, the result report,
/// order statistics, process resource usage, and the in-memory span
/// recorder of the traced run.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The `symphase` CLI binary (serve-mix starts it as the server).
  std::string cli;
  /// The repository's data/ corpus (serve-mix request circuits).
  std::string data_dir;
  /// Scratch directory for port files, server logs and trace output.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints: notes (lines before the result), then the
/// one-line JSON result.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// getrusage(RUSAGE_SELF) snapshot.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  double max_rss_mb = 0;
};
Usage self_usage();

/// Shortest round-trip decimal rendering of a double (JSON number).
std::string json_number(double value);
std::string json_string(const std::string& text);

/// Host description printed next to the metrics: CPU count and the
/// WideWord backend the library was compiled with (numbers from
/// different backends are not comparable).
std::string host_note();
bool scalar_backend();

/// Spans of the traced run, kept in memory and written out as Chrome
/// trace-event JSON (loadable in Perfetto / chrome://tracing) when the
/// run ends. Thread-safe; a span costs one mutex-guarded push.
class SpanLog {
 public:
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, std::uint64_t arg = 0);
  /// Writes the spans to `path`; returns false when it cannot.
  bool write(const std::string& path) const;
  std::size_t size() const;

 private:
  struct Span {
    std::string name;
    std::uint64_t tid = 0;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::uint64_t arg = 0;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// Workload entry points (one per BENCHMARK.json workload).
Report run_fig3a_sample(const Options& options, SpanLog& spans);
Report run_fig3c_compile(const Options& options, SpanLog& spans);
Report run_surface_detect(const Options& options, SpanLog& spans);
Report run_serve_mix(const Options& options, SpanLog& spans);

/// The self-test: every check of every workload, fed clean output and
/// deliberately corrupted output. Returns true when each check accepts
/// the clean output and rejects the corruptions it exists to catch.
bool run_self_test(const Options& options);

}  // namespace perfbench
