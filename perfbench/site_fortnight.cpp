// site_fortnight — two simulated weeks of a three-cluster site federation.
//
// ext_site_ops's base configuration (Lassen + Tioga + Grace, 22 nodes,
// 30 jobs/h at the diurnal plateau, 14 kW facility bound) under the single
// site policy tariff-aware-dr, through experiments::run_site_ops. A long
// simulated horizon on few nodes on the monolithic engine: per-node work
// (apps stepping, hwsim grants, manager control ticks and site rounds)
// dominates; the monitor, the sharded engine and the twin do no work.
//
// run_site_ops is one opaque call, so the only separable set-up is the
// seeded arrival stream, which the benchmark also generates itself with
// make_site_workload to check the job count.
#include <algorithm>

#include "bench.hpp"
#include "experiments/site_ops.hpp"
#include "experiments/site_workload.hpp"

namespace perfbench {

namespace {

using namespace fluxpower;

// run_site_ops scorecard hashes, recorded for seeds 0-10 and the default 42.
const std::vector<Reference> kReference = {
    {0, 0x64e0794059926c5bULL}, {1, 0x56d9fae3c47fd5a8ULL},
    {2, 0x68c8aaa8cbb4cf1cULL}, {3, 0x395061883a46fdadULL},
    {4, 0xd9eb6dde64df1e24ULL}, {5, 0xeae74ad5d93dca92ULL},
    {6, 0x73756175ff9bef5cULL}, {7, 0x3e9dadeeabb78ec2ULL},
    {8, 0x030b3289c30c7e15ULL}, {9, 0x4f8004121e1643b8ULL},
    {10, 0xaa88862353e3bb12ULL}, {42, 0x464f65bb29ec6abfULL},
};

experiments::SiteOpsConfig make_config(std::uint64_t seed) {
  experiments::SiteOpsConfig cfg;
  cfg.members = experiments::default_site_members();
  cfg.workload.duration_s = 14.0 * 86400.0;
  cfg.workload.jobs_per_hour_peak = 30.0;
  cfg.workload.seed = seed;
  cfg.site_bound_w = 14000.0;
  cfg.site_policy = "tariff-aware-dr";
  cfg.seed = seed;
  return cfg;
}

/// The member shapes run_site_ops hands to make_site_workload.
std::vector<experiments::MemberWorkload> shapes_of(
    const experiments::SiteOpsConfig& cfg) {
  std::vector<experiments::MemberWorkload> shapes;
  for (const experiments::SiteMemberSpec& m : cfg.members) {
    experiments::MemberWorkload shape = m.workload;
    shape.platform = m.platform;
    shape.max_nodes = std::min(shape.max_nodes, m.nodes);
    shapes.push_back(shape);
  }
  return shapes;
}

std::uint64_t hash_of(const experiments::SiteOpsResult& r) {
  Hasher h;
  h.add(r.site_policy).add(r.jobs_total).add(r.jobs_deferred);
  h.add(r.jobs_started).add(r.jobs_completed).add(r.slo_met);
  h.add(r.slo_attainment).add(r.energy_j).add(r.energy_cost_usd);
  h.add(r.cap_violation_min).add(r.peak_site_draw_w).add(r.avg_site_draw_w);
  h.add(r.rebalances).add(r.rounds_completed).add(r.member_misses);
  h.add(r.end_s);
  for (const experiments::SiteMemberStats& m : r.members) {
    h.add(m.name).add(m.jobs).add(m.completed).add(m.energy_j);
  }
  return h.value();
}

}  // namespace

Report run_site_fortnight(const Options& opt, Tracer& tracer) {
  Report report;
  tracer.set_enabled(opt.trace);
  const experiments::SiteOpsConfig cfg = make_config(opt.seed);
  const std::vector<experiments::MemberWorkload> shapes = shapes_of(cfg);

  // The workload runs on one thread, pinned to the CPU the host's speed is
  // sampled on.
  const int cpu = allowed_cpus().back();
  pin_this_thread({cpu});
  const HostSpeed host({cpu});

  // Set-up: the seeded arrival stream, generated repeatedly for two seconds
  // (at least 21 times).
  std::vector<double> setup_s;
  std::size_t expected_jobs = 0;
  experiments::make_site_workload(cfg.workload, shapes);  // warm-up
  const auto t_setup = Clock::now();
  for (int i = 0; i < 21 || seconds_since(t_setup) < 2.0; ++i) {
    Span span(tracer, "make_site_workload", 0, i);
    const auto t0 = Clock::now();
    expected_jobs = experiments::make_site_workload(cfg.workload, shapes).size();
    setup_s.push_back(seconds_since(t0));
  }
  const double setup_ref = median(setup_s) * host.scale(t_setup, Clock::now());

  std::vector<double> run_untraced, run_traced;  // wall
  std::vector<double> run_ref, run_traced_ref;   // reference seconds
  experiments::SiteOpsResult first;
  std::uint64_t first_hash = 0;
  const auto t_start = Clock::now();
  const int min_reps = opt.trace ? 2 : 1;
  for (int rep = 0; rep < min_reps || seconds_since(t_start) < opt.seconds;
       ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    tracer.set_enabled(traced);
    Span span(tracer, "run_site_ops", 0, rep);
    const auto t0 = Clock::now();
    const experiments::SiteOpsResult r = experiments::run_site_ops(cfg);
    const auto t1 = Clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    span.close({{"jobs_total", r.jobs_total}, {"wall_s", wall}});
    (traced ? run_traced : run_untraced).push_back(wall);
    (traced ? run_traced_ref : run_ref).push_back(host.reference_s(t0, t1));

    const std::uint64_t h = hash_of(r);
    report.attempted += static_cast<std::uint64_t>(r.jobs_total);
    // Jobs that did not complete fail; any other mismatch fails the rep.
    int bad = r.jobs_total - r.jobs_completed;
    if (bad != 0) {
      report.fail(format("rep %d: %d of %d jobs completed", rep,
                         r.jobs_completed, r.jobs_total));
    }
    if (static_cast<std::size_t>(r.jobs_total) != expected_jobs) {
      report.fail(format("rep %d: %d jobs run, %zu generated", rep,
                         r.jobs_total, expected_jobs));
      bad = r.jobs_total;
    }
    if (!(r.slo_attainment >= 0.0 && r.slo_attainment <= 1.0)) {
      report.fail(format("rep %d: SLO attainment %g outside [0,1]", rep,
                         r.slo_attainment));
      bad = r.jobs_total;
    }
    if (rep == 0) {
      first = r;
      first_hash = h;
    } else if (h != first_hash) {
      report.fail(format("rep %d: output hash %016llx differs from rep 0",
                         rep, static_cast<unsigned long long>(h)));
      bad = r.jobs_total;
    }
    report.failed += static_cast<std::uint64_t>(std::max(bad, 0));
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

  const double setup = median(setup_s);
  const double run = median(run_untraced);
  const double run_ref_s = median(run_ref);
  const int reps = static_cast<int>(run_untraced.size() + run_traced.size());
  report.line(format("reps %d, %d jobs per rep, output hash %016llx%s", reps,
                     first.jobs_total,
                     static_cast<unsigned long long>(first_hash),
                     find_reference(kReference, opt.seed) ? " (reference)"
                                                           : ""));
  report.line(format("scorecard: deferred %d, SLO %.4f, energy %.6g J, "
                     "cost %.2f USD, rounds %d, member misses %llu",
                     first.jobs_deferred, first.slo_attainment, first.energy_j,
                     first.energy_cost_usd, first.rounds_completed,
                     static_cast<unsigned long long>(first.member_misses)));
  report.line(format("setup_s %.6f s reference, %.6f s wall "
                     "(make_site_workload, median of %zu)",
                     setup_ref, setup, setup_s.size()));
  report.line(format("run_s %.4f s reference, %.4f s wall (median of %zu "
                     "untraced reps)",
                     run_ref_s, run, run_untraced.size()));
  report.line("reps run_s wall:" + rep_list(run_untraced));
  report.line("reps run_s reference:" + rep_list(run_ref));
  report.line(format("host: mean reference slice %.4g ms",
                     host.mean_slice_s() * 1e3));

  if (!opt.trace) {
    report.metric("setup_s", setup_ref);
    report.metric("run_s", run_ref_s);
    report.metric("ops_per_s", first.jobs_total / run_ref_s);
  } else {
    const double overhead = median(run_traced_ref) - run_ref_s;
    report.line(format("tracing overhead %.4f s reference (traced %.4f s "
                       "wall)",
                       overhead, median(run_traced)));
    report.metric("experiments.site_workload_s", setup_ref);
    report.metric("manager.site_rounds", first.rounds_completed);
    report.metric("manager.site_member_misses",
                  static_cast<double>(first.member_misses));
    report.metric("policy.site_deferred", first.jobs_deferred);
    report.metric("policy.jobs_completed", first.jobs_completed);
    report.metric("trace.overhead_s", overhead);
  }
  return report;
}

}  // namespace perfbench
