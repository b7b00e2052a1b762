// twin_whatif — what-if serving on the digital twin.
//
// micro_twin_bench's spec (8 nodes, manager with a 9.6 kW bound, GEMM x6 +
// LAMMPS x2), snapshot at t = 120 s, served by a TwinServer with 4
// workers. Four virtual clients run a closed loop over 1000 seeded
// queries: each sends its next query only once its previous one has been
// answered, and blocks on the future meanwhile. The seed draws each
// query's perturbation (budget scale, budget set or node kill) and when it
// applies; every query shares the 120 s prefix and no two are identical,
// so a restore/prefix cache could help but result memoisation cannot.
// This is the only workload that exercises the twin and the fault plane,
// and the only one that queues.
//
// Checks, outside the timed phase: a seeded sample of queries re-served by
// the server must repeat bit for bit, and another must match a direct
// single-thread TwinFork::materialize + TwinSession::finish.
#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "twin/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace fluxpower;

constexpr int kQueries = 1000;
constexpr int kClients = 4;
constexpr int kWorkers = 4;
constexpr double kSnapshotS = 120.0;
constexpr int kRepeatChecks = 8;
constexpr int kDirectChecks = 4;
constexpr int kSetups = 5;  ///< set-ups timed per rep

// Query outcome hashes, recorded for seeds 0-10 and the default 42.
const std::vector<Reference> kReference = {
    {0, 0xaf849b1810fafcefULL}, {1, 0xc60209d100ba18f8ULL},
    {2, 0x7b30ad742a045dd2ULL}, {3, 0xcf0c3c5102118487ULL},
    {4, 0xf9e16b82094c6e91ULL}, {5, 0x4cd44679398758b0ULL},
    {6, 0x39ead432a2c12a37ULL}, {7, 0xf1eb7ddf93080423ULL},
    {8, 0xba9891e74524f390ULL}, {9, 0x017e755455263e95ULL},
    {10, 0x12b2f0d7e9bc42ccULL}, {42, 0x2f69f7cee95be7ccULL},
};

twin::TwinSpec make_spec() {
  twin::TwinSpec spec;
  spec.scenario.nodes = 8;
  spec.scenario.load_manager = true;
  spec.scenario.manager.cluster_power_bound_w = 9600.0;
  spec.scenario.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  spec.scenario.manager.limit_refresh_s = 20.0;
  experiments::JobRequest gemm;
  gemm.kind = apps::AppKind::Gemm;
  gemm.nnodes = 6;
  gemm.work_scale = 1.2;
  spec.jobs.push_back(gemm);
  experiments::JobRequest lammps;
  lammps.kind = apps::AppKind::Lammps;
  lammps.nnodes = 2;
  lammps.work_scale = 1.5;
  lammps.submit_time_s = 15.0;
  spec.jobs.push_back(lammps);
  spec.max_time_s = 2400.0;
  return spec;
}

std::vector<twin::WhatIfQuery> make_queries(std::uint64_t seed) {
  using Kind = twin::Perturbation::Kind;
  util::Rng rng(seed);
  // Equal shares of the three kinds in a seeded order, so the mix (and
  // with it the work per rep) does not drift with the seed.
  std::vector<Kind> kinds;
  for (int i = 0; i < kQueries; ++i) kinds.push_back(static_cast<Kind>(i % 3));
  for (std::size_t i = kinds.size() - 1; i > 0; --i) {
    std::swap(kinds[i], kinds[static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  std::vector<twin::WhatIfQuery> queries;
  std::set<std::tuple<int, double, double, int>> seen;
  while (static_cast<int>(queries.size()) < kQueries) {
    twin::Perturbation p;
    p.kind = kinds[queries.size()];
    p.at_s = rng.uniform(kSnapshotS + 1.0, 420.0);
    switch (p.kind) {
      case Kind::BudgetSet:
        p.value = rng.uniform(4000.0, 9600.0);
        break;
      case Kind::BudgetScale:
        p.value = rng.uniform(0.5, 1.0);
        break;
      case Kind::NodeKill:
        p.rank = static_cast<flux::Rank>(rng.uniform_int(1, 7));
        p.down_s = rng.uniform(20.0, 120.0);
        break;
    }
    const int kind = static_cast<int>(p.kind);
    if (!seen.insert({kind, p.at_s, p.value + p.down_s, p.rank}).second) {
      continue;
    }
    queries.push_back(
        {format("q%zu", queries.size()), std::vector<twin::Perturbation>{p}});
  }
  return queries;
}

/// The simulated outcome of a query; latency and label excluded.
bool same_outcome(const twin::WhatIfResult& a, const twin::WhatIfResult& b) {
  return a.energy_j == b.energy_j && a.makespan_s == b.makespan_s &&
         a.peak_w == b.peak_w && a.completed_jobs == b.completed_jobs &&
         a.d_energy_j == b.d_energy_j && a.d_makespan_s == b.d_makespan_s &&
         a.d_peak_w == b.d_peak_w && a.overshoot_w == b.overshoot_w;
}

void hash_outcome(Hasher& h, const twin::WhatIfResult& r) {
  h.add(r.energy_j).add(r.makespan_s).add(r.peak_w).add(r.completed_jobs);
  h.add(r.d_energy_j).add(r.d_makespan_s).add(r.d_peak_w).add(r.overshoot_w);
}

/// One repetition's measurements.
///
/// setup_s and run_s are wall times; every other time is in reference
/// seconds (see HostSpeed).
struct Rep {
  double setup_s = 0.0, run_s = 0.0;
  double setup_ref_s = 0.0, run_ref_s = 0.0;
  double capture_ms = 0.0, baseline_s = 0.0;  ///< medians over the set-ups
  std::vector<double> latency_ms, service_ms, wait_ms;
  std::vector<double> restore_ms, fast_forward_ms;
  std::uint64_t hash = 0;
  std::uint64_t forks = 0;
};

Rep run_rep(const std::vector<twin::WhatIfQuery>& queries, std::uint64_t seed,
            int rep, const HostSpeed& host, Tracer& tracer, Report& report) {
  Rep out;
  const Span rep_span(tracer, "rep", 0, rep);

  // Set-up, kSetups times: advance to the snapshot, capture, start the
  // server, baseline. The last set-up's server serves the closed loop.
  std::shared_ptr<const twin::Snapshot> snapshot;
  std::optional<twin::TwinServer> server;
  twin::WhatIfResult baseline;
  std::vector<double> setup_s, setup_ref_s, capture_ms, baseline_s;
  for (int k = 0; k < kSetups; ++k) {
    server.reset();  // the previous set-up's server, outside the timing
    Span setup_span(tracer, "setup", rep_span.id(), k);
    const auto t_setup = Clock::now();
    double capture_wall_ms = 0.0;
    {
      twin::TwinSession session(make_spec());
      {
        const Span s(tracer, "TwinSession::advance_to", setup_span.id());
        session.advance_to(kSnapshotS);
      }
      const Span s(tracer, "Snapshot::capture", setup_span.id());
      const auto t0 = Clock::now();
      snapshot = std::make_shared<const twin::Snapshot>(
          twin::Snapshot::capture(session));
      capture_wall_ms = seconds_since(t0) * 1e3;
    }
    {
      const Span s(tracer, "TwinServer::TwinServer", setup_span.id());
      server.emplace(snapshot, kWorkers);
    }
    double baseline_wall_s = 0.0;
    {
      const Span s(tracer, "TwinServer::baseline", setup_span.id());
      const auto t0 = Clock::now();
      baseline = server->baseline();
      baseline_wall_s = seconds_since(t0);
    }
    const auto t_end = Clock::now();
    setup_span.close();
    const double wall = std::chrono::duration<double>(t_end - t_setup).count();
    const double scale = host.scale(t_setup, t_end);
    setup_s.push_back(wall);
    setup_ref_s.push_back(wall * scale);
    capture_ms.push_back(capture_wall_ms * scale);
    baseline_s.push_back(baseline_wall_s * scale);
  }
  out.setup_s = median(setup_s);
  out.setup_ref_s = median(setup_ref_s);
  out.capture_ms = median(capture_ms);
  out.baseline_s = median(baseline_s);

  // Timed phase: the closed loop. Client c serves queries c, c + 4, ...
  std::vector<std::optional<twin::WhatIfResult>> results(queries.size());
  std::vector<double> latency_s(queries.size(), 0.0);
  std::vector<std::string> errors(queries.size());
  Span loop_span(tracer, "closed_loop", rep_span.id());
  const std::uint64_t loop_id = loop_span.id();
  const auto t_loop = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = static_cast<std::size_t>(c); i < queries.size();
           i += kClients) {
        Span s(tracer, "TwinServer::submit", loop_id,
               static_cast<std::int64_t>(i));
        const auto t0 = Clock::now();
        try {
          results[i] = server->submit(queries[i]).get();
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
        latency_s[i] = seconds_since(t0);
        s.close({{"service_ms",
                  results[i] ? results[i]->latency_s * 1e3 : 0.0}});
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const auto t_loop_end = Clock::now();
  out.run_s = std::chrono::duration<double>(t_loop_end - t_loop).count();
  const double loop_scale = host.scale(t_loop, t_loop_end);
  out.run_ref_s = out.run_s * loop_scale;
  loop_span.close();

  Hasher h;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    report.attempted += 1;
    if (!results[i]) {
      report.failed += 1;
      report.fail(format("rep %d query %zu failed: %s", rep, i,
                         errors[i].c_str()));
      continue;
    }
    hash_outcome(h, *results[i]);
    out.latency_ms.push_back(latency_s[i] * 1e3 * loop_scale);
    out.service_ms.push_back(results[i]->latency_s * 1e3 * loop_scale);
    out.wait_ms.push_back((latency_s[i] - results[i]->latency_s) * 1e3 *
                          loop_scale);
  }
  out.hash = h.value();

  const std::uint64_t served = server->queries_served();
  out.forks = server->forks_materialized();
  // The baseline is a fork of its own.
  if (served != static_cast<std::uint64_t>(kQueries) ||
      out.forks != served + 1) {
    report.fail(format("rep %d: server counts %llu served, %llu forks for %d "
                       "queries",
                       rep, static_cast<unsigned long long>(served),
                       static_cast<unsigned long long>(out.forks), kQueries));
  }

  // Checks outside the timed phase, on a seeded sample of queries.
  util::Rng pick(seed ^ (0x9E3779B97F4A7C15ULL *
                        static_cast<std::uint64_t>(rep + 1)));
  const auto sample = [&] {
    return static_cast<std::size_t>(pick.uniform_int(0, kQueries - 1));
  };
  for (int k = 0; k < kRepeatChecks; ++k) {
    const std::size_t i = sample();
    if (!results[i]) continue;
    report.attempted += 1;
    const Span s(tracer, "repeat_check", rep_span.id(),
                 static_cast<std::int64_t>(i));
    const twin::WhatIfResult again = server->submit(queries[i]).get();
    if (!same_outcome(again, *results[i])) {
      report.failed += 1;
      report.fail(format("rep %d query %zu: repeat differs", rep, i));
    }
  }
  for (int k = 0; k < kDirectChecks; ++k) {
    const std::size_t i = sample();
    if (!results[i]) continue;
    report.attempted += 1;
    const Span s(tracer, "direct_check", rep_span.id(),
                 static_cast<std::int64_t>(i));
    twin::TwinFork fork(snapshot);
    for (const twin::Perturbation& p : queries[i].perturbations) fork.add(p);
    auto t0 = Clock::now();
    std::unique_ptr<twin::TwinSession> session;
    {
      const Span m(tracer, "TwinFork::materialize", s.id());
      session = fork.materialize();
    }
    out.restore_ms.push_back(host.reference_s(t0, Clock::now()) * 1e3);
    t0 = Clock::now();
    experiments::ScenarioResult res;
    {
      const Span f(tracer, "TwinSession::finish", s.id());
      res = session->finish();
    }
    out.fast_forward_ms.push_back(host.reference_s(t0, Clock::now()) * 1e3);
    // The server's endpoint: totals, completions, post-snapshot peak.
    int completed = 0;
    for (const experiments::JobResult& j : res.jobs) {
      if (j.t_end >= 0.0) ++completed;
    }
    double peak = 0.0;
    for (const auto& [t, w] : res.cluster_timeline) {
      if (t >= snapshot->time()) peak = std::max(peak, w);
    }
    const twin::WhatIfResult& r = *results[i];
    if (res.total_energy_j != r.energy_j || res.makespan_s != r.makespan_s ||
        peak != r.peak_w || completed != r.completed_jobs ||
        r.d_energy_j != r.energy_j - baseline.energy_j) {
      report.failed += 1;
      report.fail(format("rep %d query %zu: direct run differs from served "
                         "result",
                         rep, i));
    }
  }
  return out;
}

}  // namespace

Report run_twin_whatif(const Options& opt, Tracer& tracer) {
  Report report;
  const std::vector<twin::WhatIfQuery> queries = make_queries(opt.seed);
  const HostSpeed host(allowed_cpus());
  std::vector<Rep> untraced, traced;
  std::uint64_t hash = 0;
  // Rep 0 warms caches and the allocator: it is checked but not timed.
  const auto t_start = Clock::now();
  const int min_reps = opt.trace ? 3 : 2;
  for (int rep = 0; rep < min_reps || seconds_since(t_start) < opt.seconds;
       ++rep) {
    const bool on = opt.trace && rep % 2 == 1;
    tracer.set_enabled(on);
    Rep r = run_rep(queries, opt.seed, rep, host, tracer, report);
    if (rep == 0) hash = r.hash;
    if (r.hash != hash) {
      report.fail(format("rep %d: result hash %016llx differs from rep 0", rep,
                         static_cast<unsigned long long>(r.hash)));
      report.failed += static_cast<std::uint64_t>(kQueries);
    }
    if (rep > 0) (on ? traced : untraced).push_back(std::move(r));
  }
  tracer.set_enabled(opt.trace);
  if (const Reference* ref = find_reference(kReference, opt.seed)) {
    if (ref->hash != hash) {
      report.fail(format("result hash %016llx != reference %016llx",
                         static_cast<unsigned long long>(hash),
                         static_cast<unsigned long long>(ref->hash)));
      report.failed = report.attempted;
    }
  }

  // Medians over reps of per-rep figures; percentiles are exact order
  // statistics over one rep's samples.
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
  const auto pct = [&](std::vector<double> Rep::*field, double q) {
    return median_of(untraced,
                     [&](const Rep& r) { return percentile(r.*field, q); });
  };
  const std::size_t n = untraced.front().latency_ms.size();
  report.line(format("reps 1 warm-up + %zu untraced + %zu traced, %d "
                     "queries per rep, "
                     "%d clients, %d workers, result hash %016llx%s",
                     untraced.size(), traced.size(), kQueries, kClients,
                     kWorkers, static_cast<unsigned long long>(hash),
                     find_reference(kReference, opt.seed) ? " (reference)"
                                                           : ""));
  report.line(format("setup_s %.5f s reference, %.5f s wall (advance 120 s "
                     "+ capture + server start + baseline; median over "
                     "%zu reps of the median of %d)",
                     setup_ref, setup, all.size(), kSetups));
  report.line(format("run_s %.4f s reference, %.4f s wall (closed loop, "
                     "median of %zu reps)",
                     run_ref, run, untraced.size()));
  report.line("reps run_s wall:" + rep_list(runs));
  report.line("reps run_s reference:" + rep_list(runs_ref));
  report.line(format("host: mean reference slice %.4g ms",
                     host.mean_slice_s() * 1e3));
  report.line(format("queries_per_s %.2f 1/s reference, %.2f 1/s wall",
                     kQueries / run_ref, kQueries / run));
  report.line(format("query_p50_ms %.4f ms, query_p99_ms %.4f ms reference "
                     "(n=%zu per rep, median over reps)",
                     pct(&Rep::latency_ms, 0.50), pct(&Rep::latency_ms, 0.99),
                     n));

  if (!opt.trace) {
    report.metric("setup_s", setup_ref);
    report.metric("run_s", run_ref);
    report.metric("ops_per_s", kQueries / run_ref);
    return report;
  }
  const double traced_run = median_of(traced, &Rep::run_ref_s);
  report.line(format("tracing overhead %.4f s reference (traced %.4f s "
                     "wall)",
                     traced_run - run_ref, median_of(traced, &Rep::run_s)));
  std::vector<double> restore, fast_forward;
  for (const Rep& r : all) {
    restore.insert(restore.end(), r.restore_ms.begin(), r.restore_ms.end());
    fast_forward.insert(fast_forward.end(), r.fast_forward_ms.begin(),
                        r.fast_forward_ms.end());
  }
  report.metric("twin.capture_ms", median_of(all, &Rep::capture_ms));
  report.metric("twin.baseline_s", median_of(all, &Rep::baseline_s));
  report.metric("twin.restore_ms", median(restore));
  report.metric("twin.fast_forward_ms", median(fast_forward));
  report.metric("twin.service_p50_ms", pct(&Rep::service_ms, 0.50));
  report.metric("twin.service_p99_ms", pct(&Rep::service_ms, 0.99));
  report.metric("twin.queue_wait_p50_ms", pct(&Rep::wait_ms, 0.50));
  report.metric("twin.queue_wait_p99_ms", pct(&Rep::wait_ms, 0.99));
  report.metric("twin.query_p50_ms", pct(&Rep::latency_ms, 0.50));
  report.metric("twin.query_p99_ms", pct(&Rep::latency_ms, 0.99));
  report.metric("twin.forks_materialized",
                static_cast<double>(untraced.front().forks));
  report.metric("trace.overhead_s", traced_run - run_ref);
  return report;
}

}  // namespace perfbench
