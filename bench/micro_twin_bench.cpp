// Micro benchmarks for the digital-twin serving plane: snapshot capture
// cost and wire size, codec throughput, verified-replay restore latency,
// fork handle creation rate (the COW part — should be O(1) and allocation
// light), and end-to-end what-if query latency through the TwinServer with
// exact p50/p99 over every query's measured latency.
//
// Emits BENCH_twin.json (google-benchmark JSON) unless the caller passes
// their own --benchmark_out.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "twin/server.hpp"

namespace {

using namespace fluxpower;

twin::TwinSpec bench_spec(bool chaos) {
  twin::TwinSpec spec;
  spec.scenario.nodes = 8;
  spec.scenario.load_manager = true;
  spec.scenario.manager.cluster_power_bound_w = 9600.0;
  spec.scenario.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  spec.scenario.manager.limit_refresh_s = 20.0;
  if (chaos) {
    faultsim::FaultPlaneConfig f;
    f.seed = 17;
    f.msg_drop_rate = 0.05;
    f.node_mtbf_s = 400.0;
    f.node_reboot_s = 20.0;
    f.cap_write_failure_rate = 0.1;
    spec.scenario.faults = f;
  }
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

std::shared_ptr<const twin::Snapshot> bench_snapshot(bool chaos,
                                                     double t_snap) {
  twin::TwinSession session(bench_spec(chaos));
  session.advance_to(t_snap);
  return std::make_shared<const twin::Snapshot>(
      twin::Snapshot::capture(session));
}

/// Exact nearest-rank percentile: the smallest sample with at least q * n
/// samples at or below it. `sorted` must be ascending and non-empty.
double percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

void BM_SnapshotCapture(benchmark::State& state) {
  const bool chaos = state.range(0) != 0;
  twin::TwinSession session(bench_spec(chaos));
  session.advance_to(120.0);
  std::size_t bytes = 0;
  for (auto _ : state) {
    twin::Snapshot snap = twin::Snapshot::capture(session);
    bytes = snap.encode().size();
    benchmark::DoNotOptimize(snap.state_digest());
  }
  state.counters["snapshot_bytes"] =
      benchmark::Counter(static_cast<double>(bytes));
}
BENCHMARK(BM_SnapshotCapture)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("chaos")
    ->Unit(benchmark::kMicrosecond);

void BM_SnapshotEncodeDecode(benchmark::State& state) {
  auto snap = bench_snapshot(/*chaos=*/true, 120.0);
  const std::vector<std::uint8_t> wire = snap->encode();
  for (auto _ : state) {
    const std::vector<std::uint8_t> encoded = snap->encode();
    const twin::Snapshot decoded = twin::Snapshot::decode(encoded);
    benchmark::DoNotOptimize(decoded.state_digest());
  }
  state.counters["wire_bytes"] =
      benchmark::Counter(static_cast<double>(wire.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()) * 2);
}
BENCHMARK(BM_SnapshotEncodeDecode)->Unit(benchmark::kMicrosecond);

void BM_SnapshotRestore(benchmark::State& state) {
  // Verified replay restore: rebuild from spec, fast-forward to t, check
  // every section byte-for-byte. Cost scales with t, so report both a
  // shallow and a deep snapshot.
  const double t_snap = static_cast<double>(state.range(0));
  auto snap = bench_snapshot(/*chaos=*/false, t_snap);
  for (auto _ : state) {
    std::unique_ptr<twin::TwinSession> restored = snap->restore();
    benchmark::DoNotOptimize(restored->now());
  }
  state.counters["t_snap_s"] = benchmark::Counter(t_snap);
}
BENCHMARK(BM_SnapshotRestore)
    ->Arg(30)
    ->Arg(240)
    ->ArgName("t_snap")
    ->Unit(benchmark::kMillisecond);

void BM_ForkCreate(benchmark::State& state) {
  // Handle creation only — the COW promise: no replay, no allocation of
  // simulation state, just a shared_ptr bump and an overlay copy.
  auto snap = bench_snapshot(/*chaos=*/false, 120.0);
  twin::TwinFork parent(snap);
  parent.add({.kind = twin::Perturbation::Kind::BudgetScale,
              .at_s = 150.0,
              .value = 0.8});
  for (auto _ : state) {
    twin::TwinFork child = parent.fork();
    child.add({.kind = twin::Perturbation::Kind::BudgetSet,
               .at_s = 200.0,
               .value = 5000.0});
    benchmark::DoNotOptimize(child.overlay().size());
  }
  state.SetItemsProcessed(state.iterations());  // forks/sec in the report
}
BENCHMARK(BM_ForkCreate);

void BM_WhatIfQuery(benchmark::State& state) {
  // End-to-end query latency through the serving plane: fork, verified
  // restore, perturb, fast-forward ~2000 s of sim time, diff vs baseline.
  const int workers = static_cast<int>(state.range(0));
  auto snap = bench_snapshot(/*chaos=*/false, 120.0);
  twin::TwinServer server(snap, workers);
  server.baseline();  // pay the one-time baseline outside the timed loop

  const twin::WhatIfQuery queries[3] = {
      {"budget-drop-20pct",
       {{.kind = twin::Perturbation::Kind::BudgetScale,
         .at_s = 150.0,
         .value = 0.8}}},
      {"node-3-dies",
       {{.kind = twin::Perturbation::Kind::NodeKill,
         .at_s = 180.0,
         .rank = 3,
         .down_s = 60.0}}},
      {"hard-cap-6kw",
       {{.kind = twin::Perturbation::Kind::BudgetSet,
         .at_s = 150.0,
         .value = 6000.0}}},
  };
  int i = 0;
  std::vector<double> latencies_s;
  for (auto _ : state) {
    std::vector<std::future<twin::WhatIfResult>> batch;
    batch.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      batch.push_back(server.submit(queries[i++ % 3]));
    }
    for (auto& f : batch) {
      const twin::WhatIfResult r = f.get();
      benchmark::DoNotOptimize(r.energy_j);
      latencies_s.push_back(r.latency_s);
    }
  }
  std::sort(latencies_s.begin(), latencies_s.end());
  if (!latencies_s.empty()) {
    state.counters["query_p50_ms"] = percentile(latencies_s, 0.50) * 1e3;
    state.counters["query_p99_ms"] = percentile(latencies_s, 0.99) * 1e3;
  }
  state.SetItemsProcessed(state.iterations() * workers);
}
// The queries run on worker threads, so only wall time gives an honest
// items_per_second; the main thread's CPU time mostly waits on futures.
BENCHMARK(BM_WhatIfQuery)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("workers")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Default to machine-readable output alongside the console report, unless
  // the caller chose their own output file.
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_twin.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
