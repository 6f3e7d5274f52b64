// perfbench — the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --cli PATH --data DIR --work DIR
//   perfbench --self-test --cli PATH --data DIR --work DIR
//
// Normally started through perfbench/run.py, which builds it first.
// Prints note lines (host, sample counts, warnings), then one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are every end-to-end one, with --trace 1
// every per-layer one (0 for a layer the workload does not reach); the
// traced run also writes its spans to
// WORK/trace-WORKLOAD-SEED.json. Exit status: 0 when the run completed
// (even if a correctness check failed: that is reported in "correct"),
// 1 on any error, 2 on bad usage.

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/simd_word.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Usage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool scalar_backend() {
  return std::strcmp(SYMPHASE_WIDEWORD_BACKEND, "scalar") == 0;
}

std::string host_note() {
  std::ostringstream oss;
  oss << "host: cpus=" << std::thread::hardware_concurrency()
      << " wideword=" << SYMPHASE_WIDEWORD_BACKEND;
  if (scalar_backend()) {
    oss << " WARNING: scalar WideWord build; its numbers are not "
           "comparable with AVX2/AVX-512 builds";
  }
  return oss.str();
}

void SpanLog::record(const std::string& name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t arg) {
  Span span;
  span.name = name;
  span.tid = static_cast<std::uint64_t>(syscall(SYS_gettid));
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  span.dur_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  span.arg = arg;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << json_number(static_cast<double>(s.start_ns) / 1e3)
        << ",\"dur\":" << json_number(static_cast<double>(s.dur_ns) / 1e3)
        << ",\"args\":{\"n\":" << s.arg << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.good();
}

namespace {

[[noreturn]] void usage(const std::string& detail) {
  std::cerr << "perfbench: " << detail << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --cli PATH --data DIR --work DIR\n"
               "       perfbench --self-test --cli PATH --data DIR --work DIR\n";
  std::exit(2);
}

/// The metrics BENCHMARK.json declares, in its order; keep the two in
/// step.
struct Declared {
  const char* name;
  const char* unit;
};
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"shots_per_cpu_s", "shots/cpu-s"},
    {"frame_shots_per_cpu_s", "shots/cpu-s"},
    {"peak_rss_mb", "MB"},
};
constexpr Declared kPerLayer[] = {
    {"req_p50_ms", "ms"},
    {"req_p99_ms", "ms"},
    {"circuit.parse_s", "s"},
    {"symbolic.forward_pass_s", "s"},
    {"symbolic.symbols", "count"},
    {"symbolic.expr_nnz", "count"},
    {"sampler.build_s", "s"},
    {"sampler.symbol_gen_busy_s", "s"},
    {"sampler.product_busy_s", "s"},
    {"sampler.fill_busy_s", "s"},
    {"sampler.frame_fill_busy_s", "s"},
    {"sampler.format_busy_s", "s"},
    {"sampler.output_bytes", "count"},
    {"api.run_wall_s", "s"},
    {"api.traced_wall_s", "s"},
    {"api.fill_parallelism", "ratio"},
    {"api.minor_faults", "count"},
    {"api.sys_s", "s"},
    {"service.queue_ms.p50", "ms"},
    {"service.queue_ms.p99", "ms"},
    {"service.execute_ms.p50", "ms"},
    {"service.emit_ms.p50", "ms"},
    {"service.compile_ms.p99", "ms"},
    {"service.cache_hits", "count"},
    {"service.compiles", "count"},
    {"service.fused_requests", "count"},
    {"service.fusion_groups", "count"},
    {"net.frame_req_ms.p50", "ms"},
    {"net.frame_req_ms.p99", "ms"},
    {"net.ttfb_ms.p50", "ms"},
    {"net.send_lag_ms.p99", "ms"},
    {"http.req_ms.p50", "ms"},
    {"http.req_ms.p99", "ms"},
};

/// Puts the report's metrics in the declared order of its mode. Every
/// workload measures every end-to-end metric; a per-layer metric whose
/// layer the workload does not reach from outside reads 0, so that
/// every result line of a mode has the same keys.
void complete_metrics(Report& report, bool trace) {
  std::vector<Metric> ordered;
  std::string unreached;
  for (const Declared& d : trace ? std::span<const Declared>(kPerLayer)
                                 : std::span<const Declared>(kEndToEnd)) {
    const auto it = std::find_if(
        report.metrics.begin(), report.metrics.end(),
        [&](const Metric& m) { return m.name == d.name; });
    if (it != report.metrics.end()) {
      if (it->unit != d.unit) {
        throw std::logic_error("metric " + it->name + " in " + it->unit +
                               ", declared in " + d.unit);
      }
      ordered.push_back(*it);
      report.metrics.erase(it);
    } else if (trace) {
      ordered.push_back({d.name, 0.0, d.unit});
      unreached += (unreached.empty() ? "" : " ") + std::string(d.name);
    } else {
      throw std::logic_error(std::string("end-to-end metric ") + d.name +
                             " not measured");
    }
  }
  if (!report.metrics.empty()) {
    throw std::logic_error("undeclared metric " + report.metrics[0].name);
  }
  report.metrics = std::move(ordered);
  if (!unreached.empty()) {
    report.note("layers this workload does not reach, printed as 0: " +
                unreached);
  }
}

void print_report(const Report& report) {
  for (const std::string& line : report.notes) {
    std::cout << "# " << line << "\n";
  }
  std::ostringstream oss;
  oss << "{\"correct\":" << (report.correct ? "true" : "false")
      << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    oss << (i == 0 ? "" : ",") << json_string(m.name)
        << ":{\"value\":" << json_number(m.value)
        << ",\"unit\":" << json_string(m.unit) << "}";
  }
  oss << "}}";
  std::cout << oss.str() << std::endl;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool self_test = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + key);
    }
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (key == "--cli") {
        options.cli = value;
      } else if (key == "--data") {
        options.data_dir = value;
      } else if (key == "--work") {
        options.work_dir = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": '" + value + "'");
    }
  }
  if (options.work_dir.empty() || options.cli.empty() ||
      options.data_dir.empty()) {
    usage("--cli, --data and --work are required");
  }

  try {
    if (self_test) {
      return run_self_test(options) ? 0 : 1;
    }
    if (!have_seed || !(options.seconds > 0)) {
      usage("--seed and a positive --seconds are required");
    }
    SpanLog spans;
    Report report;
    if (options.workload == "fig3a-sample") {
      report = run_fig3a_sample(options, spans);
    } else if (options.workload == "fig3c-compile") {
      report = run_fig3c_compile(options, spans);
    } else if (options.workload == "surface-detect") {
      report = run_surface_detect(options, spans);
    } else if (options.workload == "serve-mix") {
      report = run_serve_mix(options, spans);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
    report.notes.insert(report.notes.begin(), host_note());
    if (options.trace) {
      const std::string path = options.work_dir + "/trace-" +
                               options.workload + "-" +
                               std::to_string(options.seed) + ".json";
      if (!spans.write(path)) {
        throw std::runtime_error("cannot write trace file " + path);
      }
      report.note("trace: " + std::to_string(spans.size()) + " spans in " +
                  path);
    }
    complete_metrics(report, options.trace);
    print_report(report);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
