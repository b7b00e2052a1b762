// Ablation: monitor sampling period vs overhead, energy-estimate accuracy
// and buffer coverage. The paper fixes a 2 s period and a 100,000-sample
// buffer (~2.3 days of coverage); this sweep shows the trade-off that
// motivates those defaults — faster sampling costs application time and
// shortens buffer coverage, slower sampling degrades the trapezoidal
// energy estimate on phase-heavy applications.
//
// A second section ablates the telemetry data plane itself: the same typed
// window query (PowerSample structs end-to-end) is timed alone and with the
// legacy JSON edge on top (the root renders the response, the client
// parses every sample), comparing host wall-clock per query and per-sample
// buffer memory.
#include <chrono>
#include <iostream>

#include "bench/common.hpp"
#include "bench/json_edge.hpp"
#include "experiments/scenario.hpp"
#include "monitor/client.hpp"
#include "variorum/variorum.hpp"

using namespace fluxpower;
using namespace fluxpower::experiments;

int main() {
  bench::banner("Ablation: monitor sampling period",
                "overhead vs accuracy vs buffer coverage (Quicksilver, 2 "
                "nodes, Lassen)");
  util::TextTable table({"period s", "runtime s", "overhead % vs no-monitor",
                         "energy est err %", "buffer covers (days)"});

  // Baseline without the monitor.
  const double base_t =
      run_single_job(hwsim::Platform::LassenIbmAc922, apps::AppKind::Quicksilver,
                     2, 27.5, /*with_monitor=*/false)
          .result.runtime_s;

  for (double period : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    ScenarioConfig cfg;
    cfg.nodes = 2;
    monitor::PowerMonitorConfig mcfg = monitor::PowerMonitorConfig::for_lassen();
    mcfg.sample_period_s = period;
    cfg.monitor = mcfg;
    Scenario s(cfg);
    JobRequest req;
    req.kind = apps::AppKind::Quicksilver;
    req.nnodes = 2;
    req.work_scale = 27.5;
    const flux::JobId id = s.submit(req);
    auto res = s.run();
    const JobResult& job = res.job(id);

    const double overhead = (job.runtime_s - base_t) / base_t * 100.0;
    const double err = (job.avg_node_energy_j - job.exact_avg_node_energy_j) /
                       job.exact_avg_node_energy_j * 100.0;
    const double coverage_days = 100000.0 * period / 86400.0;
    table.add_row({bench::num(period, 1), bench::num(job.runtime_s, 1),
                   bench::num(overhead, 2), bench::num(err, 2),
                   bench::num(coverage_days, 2)});
  }
  table.print(std::cout);
  bench::note(
      "the paper's 2 s / 100k-sample default sits where overhead is ~0.4%, "
      "the 2 s trapezoid tracks exact energy within a few percent, and the "
      "circular buffer covers multi-day jobs.");

  bench::banner("Ablation: telemetry data plane",
                "typed PowerSample end-to-end vs JSON at every layer (8 "
                "nodes, Lassen, full-window queries)");
  util::TextTable plane({"data plane", "host us/query", "samples/query",
                         "per-sample bytes"});
  double json_us = 0.0, typed_us = 0.0;
  for (const bool typed : {false, true}) {
    ScenarioConfig cfg;
    cfg.nodes = 8;
    cfg.monitor = monitor::PowerMonitorConfig::for_lassen();
    Scenario s(cfg);
    s.sim().run_until(400.0);  // ~200 samples per node in the buffers
    monitor::MonitorClient client(s.instance());
    std::vector<flux::Rank> ranks;
    for (int i = 0; i < cfg.nodes; ++i) ranks.push_back(i);

    std::size_t samples = 0;
    const int reps = 50;
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      samples = 0;
      if (!typed) {
        samples =
            bench::json_edge_window_query(s.instance(), ranks, 0.0, 400.0)
                .value_or(0);
        continue;
      }
      auto window = client.query_window_blocking(ranks, 0.0, 400.0);
      if (window) {
        for (const auto& n : window->nodes) samples += n.samples.size();
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double us_per_query =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;
    (typed ? typed_us : json_us) = us_per_query;

    // Per-sample memory in the node-agent's ring buffer.
    sim::Simulation probe_sim;
    hwsim::IbmAc922Node probe(probe_sim, "lassen0");
    const std::size_t per_sample =
        typed ? sizeof(hwsim::PowerSample)
              : variorum::get_node_power_json(probe).dump().size();
    // Host wall-clock is nondeterministic: the column renders "-" unless
    // FLUXPOWER_HOST_TIMING=1, keeping default stdout byte-stable.
    plane.add_row({typed ? "typed (PowerSample)" : "JSON (legacy)",
                   bench::host_us(us_per_query),
                   std::to_string(samples), std::to_string(per_sample)});
  }
  plane.print(std::cout);
  if (bench::host_timing_enabled() && typed_us > 0.0) {
    bench::note("typed data plane speedup over JSON: " +
                bench::num(json_us / typed_us, 2) + "x per query");
  }
  return 0;
}
