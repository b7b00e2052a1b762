// whole_site_32k — a 32,768-node Lassen site on the sharded engine.
//
// fig2's whole-site run at half size: fanout-16 TBON, 4 islands advanced
// by 4 workers, the power monitor on every broker, no manager, and fig2's
// three-job mix halved (GEMM 1024 nodes, LAMMPS 512, Quicksilver 256) run
// to completion, then every job's telemetry pulled through the TBON with
// MonitorClient::query_blocking. Stack construction, monitor sampling and
// aggregation, and the conservative window barrier dominate; the manager
// does nothing and the per-node app model runs on ~5% of the nodes.
//
// A traced run alternates untraced reps (Scenario::run) with traced reps
// that advance in fixed sim-time slices with Scenario::advance_until —
// byte-identical to run() by the Scenario contract — recording each
// slice's counter deltas, and finally repeats the run on one worker to
// check the output hash and measure the 4-worker speed-up.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "experiments/scenario.hpp"
#include "monitor/client.hpp"
#include "sim/sharded_engine.hpp"

namespace perfbench {

namespace {

using namespace fluxpower;

constexpr int kNodes = 32768;
constexpr double kMaxTime = 3600.0;
constexpr double kSliceS = 30.0;  ///< traced reps: sim seconds per slice

// Result + pulled telemetry hashes, recorded for seeds 0-10 and the default 42.
const std::vector<Reference> kReference = {
    {0, 0xcbf1fcb8730f5a8fULL}, {1, 0x48acaa9a43c88436ULL},
    {2, 0xa29af5695ae1af28ULL}, {3, 0xa97c3769fd99360dULL},
    {4, 0x692c5f58a7ff75e0ULL}, {5, 0x0be89f132785ed5bULL},
    {6, 0x283b41d02b4c6696ULL}, {7, 0x8174efc1639bed5cULL},
    {8, 0x71ab89b40b30436bULL}, {9, 0x8725e2d036bc3131ULL},
    {10, 0xf703633690bdaa31ULL}, {42, 0x35ad7e4bc7113256ULL},
};

experiments::ScenarioConfig make_config(std::uint64_t seed, int workers) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = kNodes;
  cfg.tbon_fanout = 16;
  cfg.shards = 4;
  cfg.workers = workers;
  cfg.seed = seed;
  monitor::PowerMonitorConfig mcfg = monitor::PowerMonitorConfig::for_lassen();
  mcfg.buffer_capacity = 16;  // fig2's site-scale memory bound
  mcfg.archive_jobs = false;
  cfg.monitor = mcfg;
  return cfg;
}

std::vector<experiments::JobRequest> job_mix() {
  experiments::JobRequest gemm;
  gemm.kind = apps::AppKind::Gemm;
  gemm.nnodes = 1024;
  gemm.work_scale = 0.5;
  experiments::JobRequest lammps;
  lammps.kind = apps::AppKind::Lammps;
  lammps.nnodes = 512;
  lammps.submit_time_s = 20.0;
  experiments::JobRequest quicksilver;
  quicksilver.kind = apps::AppKind::Quicksilver;
  quicksilver.nnodes = 256;
  quicksilver.work_scale = 4.0;
  quicksilver.submit_time_s = 40.0;
  return {gemm, lammps, quicksilver};
}

/// Counters read through public accessors between windows.
struct Counters {
  double events = 0, windows = 0, posts = 0, heap_allocs = 0;
  double messages = 0, events_published = 0, rpc_timeouts = 0;
  double samples = 0, merges = 0, merge_bytes = 0;
  std::vector<double> island_events;
};

Counters harvest(experiments::Scenario& s) {
  Counters c;
  sim::ShardedEngine& engine = *s.engine();
  c.events = static_cast<double>(engine.total_events_executed());
  c.windows = static_cast<double>(engine.windows_executed());
  c.posts = static_cast<double>(engine.posts_delivered());
  c.heap_allocs = static_cast<double>(engine.total_callback_heap_allocs());
  for (int i = 0; i < engine.islands(); ++i) {
    c.island_events.push_back(
        static_cast<double>(engine.island(i).events_executed()));
  }
  flux::Instance& inst = s.instance();
  for (flux::Rank r = 0; r < inst.size(); ++r) {
    const flux::Broker& b = inst.broker(r);
    const obs::MetricsRegistry& m = b.metrics();
    c.messages += static_cast<double>(b.messages_sent());
    c.events_published +=
        m.value("fluxpower_broker_events_published_total").value_or(0.0);
    c.rpc_timeouts +=
        m.value("fluxpower_broker_rpc_timeouts_total").value_or(0.0);
    c.samples += m.value("fluxpower_monitor_samples_total").value_or(0.0);
    c.merges +=
        m.value("fluxpower_monitor_subtree_merges_total").value_or(0.0);
    c.merge_bytes +=
        m.value("fluxpower_monitor_merge_bytes_total").value_or(0.0);
  }
  return c;
}

Tracer::Args delta_args(const Counters& now, const Counters& before) {
  return {{"events", now.events - before.events},
          {"windows", now.windows - before.windows},
          {"cross_island_posts", now.posts - before.posts},
          {"callback_heap_allocs", now.heap_allocs - before.heap_allocs},
          {"messages_sent", now.messages - before.messages},
          {"events_published", now.events_published - before.events_published},
          {"monitor_samples", now.samples - before.samples}};
}

void hash_result(Hasher& h, const experiments::ScenarioResult& r) {
  for (const experiments::JobResult& j : r.jobs) {
    h.add(static_cast<std::uint64_t>(j.id)).add(j.app).add(j.nnodes);
    h.add(j.t_submit).add(j.t_start).add(j.t_end).add(j.runtime_s);
    h.add(j.avg_node_power_w).add(j.max_node_power_w);
    h.add(j.max_aggregate_power_w).add(j.avg_node_energy_j);
    h.add(j.telemetry_complete).add(j.exact_avg_node_energy_j);
  }
  h.add(r.makespan_s).add(r.total_energy_j).add(r.max_cluster_power_w);
  h.add(r.avg_cluster_power_w);
  for (const auto& [id, points] : r.timelines) {
    h.add(static_cast<std::uint64_t>(id));
    for (const experiments::TimelinePoint& p : points) {
      h.add(p.t_s).add(p.node_w).add(p.mem_w);
      for (double w : p.gpu_w) h.add(w);
      for (double w : p.cpu_w) h.add(w);
      for (double w : p.gpu_cap_w) h.add(w);
    }
  }
  for (const auto& [t, w] : r.cluster_timeline) h.add(t).add(w);
}

void hash_telemetry(Hasher& h, const monitor::JobPowerData& d) {
  h.add(static_cast<std::uint64_t>(d.job_id)).add(d.app);
  h.add(d.t_start).add(d.t_end);
  for (const monitor::NodePowerData& n : d.nodes) {
    h.add(n.hostname).add(static_cast<std::int64_t>(n.rank));
    h.add(n.complete).add(n.errored).add(n.error);
    for (const hwsim::PowerSample& s : n.samples) {
      h.add(s.timestamp_s).add(s.hostname.view());
      h.add(s.node_w.has_value()).add(s.node_w.value_or(0.0));
      h.add(s.node_estimate_w.has_value()).add(s.node_estimate_w.value_or(0.0));
      h.add(s.mem_w.has_value()).add(s.mem_w.value_or(0.0));
      for (double w : s.cpu_w) h.add(w);
      for (double w : s.gpu_w) h.add(w);
      h.add(s.gpu_is_oam).add(s.sensor_fault);
    }
  }
}

/// One repetition's measurements and outcome.
struct Rep {
  double setup_s = 0.0;  ///< wall
  double run_s = 0.0;    ///< wall: run to completion + telemetry pulls
  double query_s = 0.0;  ///< wall: telemetry pulls alone
  /// The same three in reference seconds.
  double setup_ref_s = 0.0, run_ref_s = 0.0, query_ref_s = 0.0;
  std::uint64_t hash = 0;
  int failed_jobs = 0;
  Counters counters;
};

Rep run_rep(const Options& opt, int workers, bool sliced, int rep,
            const HostSpeed& host, Tracer& tracer, Report& report) {
  Rep out;
  const Span rep_span(tracer, format("rep w%d", workers), 0, rep);

  Span setup_span(tracer, "setup", rep_span.id());
  auto t0 = Clock::now();
  std::optional<experiments::Scenario> scenario;
  {
    const Span s(tracer, "Scenario::Scenario", setup_span.id());
    scenario.emplace(make_config(opt.seed, workers));
  }
  const std::vector<experiments::JobRequest> mix = job_mix();
  std::vector<flux::JobId> ids;
  for (const experiments::JobRequest& req : mix) {
    const Span s(tracer, "Scenario::submit", setup_span.id());
    ids.push_back(scenario->submit(req));
  }
  auto t1 = Clock::now();
  out.setup_s = std::chrono::duration<double>(t1 - t0).count();
  out.setup_ref_s = host.reference_s(t0, t1);
  setup_span.close();

  Span run_span(tracer, "run", rep_span.id());
  t0 = Clock::now();
  experiments::ScenarioResult result;
  if (!sliced) {
    const Span s(tracer, "Scenario::run", run_span.id());
    result = scenario->run(kMaxTime);
  } else {
    Counters before = harvest(*scenario);
    for (double t = kSliceS; !scenario->all_jobs_done() && t < kMaxTime;
         t += kSliceS) {
      Span s(tracer, "Scenario::advance_until", run_span.id());
      scenario->advance_until(t, kMaxTime);
      Counters now = harvest(*scenario);
      Tracer::Args args = delta_args(now, before);
      args.push_back({"horizon_s", t});
      s.close(std::move(args));
      before = std::move(now);
    }
    const Span s(tracer, "Scenario::finish", run_span.id());
    result = scenario->finish(kMaxTime);
  }

  Hasher h;
  hash_result(h, result);
  const auto tq = Clock::now();
  monitor::MonitorClient client(scenario->instance());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Span s(tracer, "MonitorClient::query_blocking", run_span.id(),
           static_cast<std::int64_t>(ids[i]));
    const std::optional<monitor::JobPowerData> data =
        client.query_blocking(ids[i]);
    const std::size_t want = static_cast<std::size_t>(mix[i].nnodes);
    bool ok = data.has_value() && data->requested_nodes() == want &&
              data->responding_nodes() == want;
    if (data) hash_telemetry(h, *data);
    const experiments::JobResult& job = result.job(ids[i]);
    if (job.t_end < job.t_start || job.t_end <= 0.0) ok = false;
    if (!ok) {
      ++out.failed_jobs;
      report.fail(format(
          "rep %d job %llu: completed %s, telemetry from %zu of %zu nodes",
          rep, static_cast<unsigned long long>(ids[i]),
          job.t_end > 0.0 ? "yes" : "no",
          data ? data->responding_nodes() : std::size_t{0}, want));
    }
    s.close({{"nodes", static_cast<double>(want)}});
  }
  t1 = Clock::now();
  out.query_s = std::chrono::duration<double>(t1 - tq).count();
  out.query_ref_s = host.reference_s(tq, t1);
  out.run_s = std::chrono::duration<double>(t1 - t0).count();
  out.run_ref_s = host.reference_s(t0, t1);
  run_span.close();
  out.hash = h.value();
  out.counters = harvest(*scenario);

  const Span teardown(tracer, "teardown", rep_span.id());
  scenario.reset();
  return out;
}

}  // namespace

Report run_whole_site(const Options& opt, Tracer& tracer) {
  Report report;
  const HostSpeed host(allowed_cpus());
  std::vector<Rep> untraced, traced;
  std::uint64_t first_hash = 0;
  const int jobs = static_cast<int>(job_mix().size());
  const auto check = [&](const Rep& r, int rep, const char* what) {
    report.attempted += static_cast<std::uint64_t>(jobs);
    int bad = r.failed_jobs;
    if (r.hash != first_hash) {
      report.fail(format("rep %d (%s): output hash %016llx differs from "
                         "%016llx",
                         rep, what, static_cast<unsigned long long>(r.hash),
                         static_cast<unsigned long long>(first_hash)));
      bad = jobs;
    }
    report.failed += static_cast<std::uint64_t>(bad);
  };

  const auto t_start = Clock::now();
  const int min_reps = opt.trace ? 2 : 1;
  for (int rep = 0; rep < min_reps || seconds_since(t_start) < opt.seconds;
       ++rep) {
    const bool sliced = opt.trace && rep % 2 == 1;
    tracer.set_enabled(sliced);
    Rep r = run_rep(opt, 4, sliced, rep, host, tracer, report);
    if (rep == 0) first_hash = r.hash;
    check(r, rep, sliced ? "sliced" : "run");
    (sliced ? traced : untraced).push_back(std::move(r));
  }

  std::optional<Rep> single;
  if (opt.trace) {
    tracer.set_enabled(true);
    single = run_rep(opt, 1, false, -1, host, tracer, report);
    check(*single, -1, "workers=1");
  }
  tracer.set_enabled(opt.trace);

  if (const Reference* ref = find_reference(kReference, opt.seed)) {
    if (ref->hash != first_hash) {
      report.fail(format("output hash %016llx != reference %016llx",
                         static_cast<unsigned long long>(first_hash),
                         static_cast<unsigned long long>(ref->hash)));
      report.failed = report.attempted;
    }
  }

  std::vector<Rep> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  std::vector<double> runs, runs_ref;
  for (const Rep& r : untraced) {
    runs.push_back(r.run_s);
    runs_ref.push_back(r.run_ref_s);
  }
  const double setup = median_of(all, &Rep::setup_s);
  const double run = median(runs);
  const double setup_ref = median_of(all, &Rep::setup_ref_s);
  const double run_ref = median(runs_ref);
  const Counters& c = untraced.front().counters;
  report.line(format("reps %zu untraced + %zu traced, %d nodes, %d jobs per "
                     "rep, output hash %016llx%s",
                     untraced.size(), traced.size(), kNodes, jobs,
                     static_cast<unsigned long long>(first_hash),
                     find_reference(kReference, opt.seed) ? " (reference)"
                                                           : ""));
  report.line(format("setup_s %.4f s reference, %.4f s wall (Scenario "
                     "build + submits, median of %zu)",
                     setup_ref, setup, all.size()));
  report.line(format("run_s %.4f s reference, %.4f s wall (run to "
                     "completion + telemetry pulls, median of %zu untraced "
                     "reps)",
                     run_ref, run, untraced.size()));
  report.line("reps run_s wall:" + rep_list(runs));
  report.line("reps run_s reference:" + rep_list(runs_ref));
  report.line(format("host: mean reference slice %.4g ms",
                     host.mean_slice_s() * 1e3));
  report.line(format("sim: %.0f events, %.0f windows, %.0f cross-island "
                     "posts; monitor: %.0f samples, %.0f merges",
                     c.events, c.windows, c.posts, c.samples, c.merges));

  if (!opt.trace) {
    report.metric("setup_s", setup_ref);
    report.metric("run_s", run_ref);
    report.metric("ops_per_s", jobs / run_ref);
    return report;
  }

  const double island_max =
      *std::max_element(c.island_events.begin(), c.island_events.end());
  double island_sum = 0.0;
  for (double e : c.island_events) island_sum += e;
  // Both sides in reference seconds, so host drift between them cancels.
  const double speedup = single->run_ref_s / run_ref;
  const double overhead = median_of(traced, &Rep::run_ref_s) - run_ref;
  report.line(format("workers=1: run_s %.4f s reference, speed-up at 4 "
                     "workers %.3f",
                     single->run_ref_s, speedup));
  report.line(format("tracing overhead %.4f s reference (sliced %.4f s "
                     "wall)",
                     overhead, median_of(traced, &Rep::run_s)));
  report.metric("sim.events", c.events);
  report.metric("sim.events_per_s", c.events / run_ref);
  report.metric("sim.windows", c.windows);
  report.metric("sim.cross_island_posts", c.posts);
  report.metric("sim.callback_heap_allocs", c.heap_allocs);
  report.metric("sim.island_skew",
                island_max / (island_sum / static_cast<double>(
                                               c.island_events.size())));
  report.metric("sim.speedup_4w", speedup);
  report.metric("experiments.scenario_build_s", setup_ref);
  report.metric("experiments.kb_per_node", vm_hwm_mb() * 1024.0 / kNodes);
  report.metric("flux.messages_sent", c.messages);
  report.metric("flux.events_published", c.events_published);
  report.metric("flux.rpc_timeouts", c.rpc_timeouts);
  report.metric("monitor.samples", c.samples);
  report.metric("monitor.subtree_merges", c.merges);
  report.metric("monitor.merge_bytes", c.merge_bytes);
  report.metric("monitor.job_query_s",
                median_of(untraced, &Rep::query_ref_s));
  report.metric("trace.overhead_s", overhead);
  return report;
}

}  // namespace perfbench
