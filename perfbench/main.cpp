// perfbench — the repository benchmark.
//
//   perfbench --workload <site_fortnight|whole_site_32k|twin_whatif>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Runs one workload through the simulator's public entry points for about
// --seconds of wall time, checks the simulated outputs, and prints a
// human-readable readout followed by one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, from a run that also records spans (written as Chrome
// trace-event JSON to --trace-out). Exits 1 when any check fails and 2 on
// bad arguments. perfbench/README.md describes workloads and metrics.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every run reports exactly these; BENCHMARK.json lists the same names.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ops_per_s", "1/s"},
};

// Traced runs report all of these. A workload leaves at 0 the metrics of
// layers it does not exercise or cannot observe (see README.md).
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.windows", "count"},
    {"sim.cross_island_posts", "count"},
    {"sim.callback_heap_allocs", "count"},
    {"sim.island_skew", "ratio"},
    {"sim.speedup_4w", "ratio"},
    {"experiments.scenario_build_s", "s"},
    {"experiments.kb_per_node", "KiB"},
    {"experiments.site_workload_s", "s"},
    {"flux.messages_sent", "count"},
    {"flux.events_published", "count"},
    {"flux.rpc_timeouts", "count"},
    {"monitor.samples", "count"},
    {"monitor.subtree_merges", "count"},
    {"monitor.merge_bytes", "B"},
    {"monitor.job_query_s", "s"},
    {"manager.site_rounds", "count"},
    {"manager.site_member_misses", "count"},
    {"policy.site_deferred", "count"},
    {"policy.jobs_completed", "count"},
    {"twin.capture_ms", "ms"},
    {"twin.baseline_s", "s"},
    {"twin.restore_ms", "ms"},
    {"twin.fast_forward_ms", "ms"},
    {"twin.service_p50_ms", "ms"},
    {"twin.service_p99_ms", "ms"},
    {"twin.queue_wait_p50_ms", "ms"},
    {"twin.queue_wait_p99_ms", "ms"},
    {"twin.query_p50_ms", "ms"},
    {"twin.query_p99_ms", "ms"},
    {"twin.forks_materialized", "count"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<site_fortnight|whole_site_32k|twin_whatif> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
        if (!(opt.seconds > 0.0) || opt.seconds > 3600.0) {
          usage("--seconds must be in (0, 3600]");
        }
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--trace-out") {
        opt.trace_out = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Check the workload's metrics against the declared set, fill the layers
/// it bypasses with 0, and render the JSON result line.
std::string result_line(Report& r, bool trace) {
  std::map<std::string, double> got;
  for (const auto& [name, v] : r.metrics) {
    if (!got.emplace(name, v).second) r.fail("metric reported twice: " + name);
  }
  std::string out = "{\"correct\": ";
  std::string metrics;
  auto emit = [&](const MetricDef& d, double value) {
    if (!std::isfinite(value)) {
      r.fail(std::string("metric is not finite: ") + d.name);
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += format("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", d.name,
                      number(value).c_str(), d.unit);
  };
  std::set<std::string> declared;
  if (trace) {
    for (const MetricDef& d : kPerLayer) {
      declared.insert(d.name);
      const auto it = got.find(d.name);
      emit(d, it == got.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      declared.insert(d.name);
      const auto it = got.find(d.name);
      if (it == got.end()) {
        r.fail(std::string("end-to-end metric missing: ") + d.name);
        emit(d, 0.0);
      } else {
        emit(d, it->second);
      }
    }
  }
  for (const auto& [name, v] : got) {
    if (declared.count(name) == 0) r.fail("undeclared metric: " + name);
  }
  if (r.attempted == 0) r.fail("no operation attempted");
  if (!r.correct && r.failed == 0) r.failed = std::max<std::uint64_t>(1, r.attempted);
  out += r.correct ? "true" : "false";
  out += format(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
  out += metrics + "}}";
  return out;
}

}  // namespace

std::string format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string s(static_cast<std::size_t>(std::max(n, 0)), '\0');
  std::vsnprintf(s.data(), s.size() + 1, fmt, ap2);
  va_end(ap2);
  return s;
}

std::string rep_list(const std::vector<double>& seconds) {
  std::string out;
  for (double s : seconds) out += format(" %.4g", s);
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

const Reference* find_reference(const std::vector<Reference>& table,
                                std::uint64_t seed) {
  for (const Reference& r : table) {
    if (r.seed == seed) return &r;
  }
  return nullptr;
}

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent,
                            std::int64_t op) {
  if (!enabled_) return 0;
  const double start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000000;
  std::lock_guard lock(mutex_);
  Record s;
  s.name = std::move(name);
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.tid = tid;
  s.start_us = start_us;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id, Args args) {
  if (id == 0) return;
  const double end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  std::lock_guard lock(mutex_);
  Record& s = spans_.at(id - 1);
  s.end_us = end_us;
  s.args = std::move(args);
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  using fluxpower::util::Json;
  Json events = Json::array();
  {
    std::lock_guard lock(mutex_);
    for (const Record& s : spans_) {
      Json e = Json::object();
      e["name"] = s.name;
      e["cat"] = "perfbench";
      e["ph"] = "X";
      e["ts"] = s.start_us;
      e["dur"] = (s.end_us < 0.0 ? s.start_us : s.end_us) - s.start_us;
      e["pid"] = 1;
      e["tid"] = static_cast<std::int64_t>(s.tid);
      Json args = Json::object();
      args["id"] = static_cast<std::int64_t>(s.id);
      args["parent"] = static_cast<std::int64_t>(s.parent);
      if (s.op >= 0) args["op"] = s.op;
      for (const auto& [k, v] : s.args) args[k] = v;
      e["args"] = std::move(args);
      events.push_back(std::move(e));
    }
  }
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  std::ofstream f(path);
  if (!f) return false;
  f << doc.dump();
  return static_cast<bool>(f);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  // Node-kill queries make the manager warn on every fork; keep stderr to
  // errors. The level is set before any worker thread starts.
  fluxpower::util::Logger::instance().set_level(fluxpower::util::LogLevel::Error);
  // Sized for a 4-core machine: on a larger one, confine the process to 4
  // CPUs. Every thread started later inherits this, and HostSpeed samples
  // exactly these CPUs.
  std::vector<int> cpus = allowed_cpus();
  if (cpus.size() > 4) {
    cpus.resize(4);
    pin_this_thread(cpus);
  }
  Tracer tracer;
  Report report;
  try {
    if (opt.workload == "site_fortnight") {
      report = run_site_fortnight(opt, tracer);
    } else if (opt.workload == "whole_site_32k") {
      report = run_whole_site(opt, tracer);
    } else if (opt.workload == "twin_whatif") {
      report = run_twin_whatif(opt, tracer);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    report.fail(std::string("workload threw: ") + e.what());
  }
  const double peak_rss_mb = vm_hwm_mb();
  report.line(format("peak_rss_mb %.1f MiB (VmHWM)", peak_rss_mb));
  if (!opt.trace) {
    report.metric("peak_rss_mb", peak_rss_mb);
  } else {
    report.metric("trace.spans", static_cast<double>(tracer.size()));
    if (!opt.trace_out.empty() && !tracer.write_chrome_json(opt.trace_out)) {
      report.fail("cannot write trace to " + opt.trace_out);
    }
  }
  const std::string json = result_line(report, opt.trace);
  report.line(format("failed_frac %.6g (%llu of %llu operations)",
                     static_cast<double>(report.failed) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, report.attempted)),
                     static_cast<unsigned long long>(report.failed),
                     static_cast<unsigned long long>(report.attempted)));
  std::printf("workload %s  seed %llu  %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced");
  for (const std::string& l : report.lines) std::printf("  %s\n", l.c_str());
  for (const std::string& e : report.errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
