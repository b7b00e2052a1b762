// Microbenchmarks for the hardware substrate: sensor sampling, grant
// recomputation under caps, the memoized steady-demand and identical
// cap-rewrite paths, full-cluster draw summation, and the codec hot path —
// the per-tick costs everything else multiplies.
#include <benchmark/benchmark.h>

#include "flux/codec.hpp"
#include "hwsim/cluster.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "variorum/variorum.hpp"

using namespace fluxpower;

namespace {

hwsim::LoadDemand gemm_demand() {
  hwsim::LoadDemand d;
  d.cpu_w = {110, 110};
  d.gpu_w = {280, 280, 280, 280};
  d.mem_w = 70;
  return d;
}

void BM_NodeSample(benchmark::State& state) {
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "n0");
  node.set_sensor_noise(0.004);
  node.set_demand(gemm_demand());
  for (auto _ : state) {
    auto s = node.sample();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_NodeSample);

void BM_GrantRecompute(benchmark::State& state) {
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "n0");
  node.set_node_power_cap(1200.0);
  // Alternating two demands moves the floored demand on every call, so
  // each set_demand runs a full grant recomputation.
  const auto a = gemm_demand();
  auto b = a;
  b.gpu_w[0] -= 10.0;
  bool flip = false;
  for (auto _ : state) {
    node.set_demand(flip ? a : b);
    flip = !flip;
    benchmark::DoNotOptimize(node.grants());
  }
}
BENCHMARK(BM_GrantRecompute);

void BM_SteadyDemand(benchmark::State& state) {
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "n0");
  node.set_node_power_cap(1200.0);
  const auto d = gemm_demand();
  node.set_demand(d);
  for (auto _ : state) {
    node.set_demand(d);  // unchanged demand: floors + meter, no recompute
    benchmark::DoNotOptimize(node.grants());
  }
}
BENCHMARK(BM_SteadyDemand);

void BM_UniformCapRewrite(benchmark::State& state) {
  // The manager's control tick re-writing an unchanged uniform GPU cap.
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "n0");
  node.set_demand(gemm_demand());
  variorum::cap_each_gpu_power_limit(node, 200.0);
  for (auto _ : state) {
    auto results = variorum::cap_each_gpu_power_limit(node, 200.0);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_UniformCapRewrite);

void BM_GpuCapWrite(benchmark::State& state) {
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "n0");
  node.set_demand(gemm_demand());
  double cap = 150.0;
  for (auto _ : state) {
    node.set_gpu_power_cap(0, cap);
    cap = cap >= 290.0 ? 150.0 : cap + 1.0;
  }
}
BENCHMARK(BM_GpuCapWrite);

void BM_ClusterTotalDraw(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.total_draw_w());
  }
}
BENCHMARK(BM_ClusterTotalDraw)->Arg(8)->Arg(64)->Arg(792);

void BM_MessageEncodeDecode(benchmark::State& state) {
  flux::Message m;
  m.type = flux::Message::Type::Request;
  m.topic = "power-monitor.get-data";
  m.sender = 0;
  m.dest = 7;
  m.matchtag = 99;
  m.payload = util::Json::object();
  m.payload["start"] = 0.0;
  m.payload["end"] = 100.0;
  for (auto _ : state) {
    auto back = flux::decode_message(flux::encode_message(m));
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_MessageEncodeDecode);

}  // namespace

BENCHMARK_MAIN();
