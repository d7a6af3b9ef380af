// Microbenchmark: the placement engine itself — steady-state churn of
// best-fit queries against the linear server scan vs the incremental
// free-capacity index, across cluster sizes from the paper's 30-node
// deployment to a 30K-server Google-trace-scale inventory.
//
// The driver holds cluster occupancy steady: each op releases the oldest
// live placement, then queries best-fit for the next demand and allocates
// on the winner, notifying the index after every allocation change exactly
// as the simulator does.  "copies/s" is the placement throughput the
// control plane can sustain at that scale; the indexed/linear ratio is the
// speedup the tentpole claims (>= 10x at 3K+ servers).
#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "dollymp/cluster/cluster.h"
#include "dollymp/cluster/placement_index.h"
#include "dollymp/sched/scheduler.h"

using namespace dollymp;

namespace {

// Exact-binary demands drawn from the trace model's granularity (integral
// CPUs, 0.5 GB memory steps) so allocate/release round-trips are lossless.
constexpr std::array<Resources, 5> kPalette = {
    {{1, 2}, {2, 8}, {4, 16}, {6, 12}, {8, 24}}};

constexpr int kOpsPerIter = 64;

void churn(benchmark::State& state, const bool use_index) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  Cluster cluster = Cluster::google_trace(servers);
  std::optional<PlacementIndex> index;
  if (use_index) index.emplace(cluster);

  // Prefill round-robin (no queries) to ~2 live copies per server, so the
  // measured queries scan a realistically fragmented cluster.
  std::deque<std::pair<ServerId, Resources>> live;
  for (std::size_t i = 0; i < servers * 2; ++i) {
    const Resources& demand = kPalette[i % kPalette.size()];
    const auto sid = static_cast<ServerId>(i % servers);
    if (!cluster.server(i % servers).can_fit(demand)) continue;
    cluster.server(i % servers).allocate(demand);
    if (index) index->on_server_changed(sid);
    live.emplace_back(sid, demand);
  }

  std::size_t next = 0;
  long long placed = 0;
  for (auto _ : state) {
    for (int op = 0; op < kOpsPerIter; ++op) {
      if (!live.empty()) {
        const auto [sid, freed] = live.front();
        live.pop_front();
        cluster.server(static_cast<std::size_t>(sid)).release(freed);
        if (index) index->on_server_changed(sid);
      }
      const Resources& demand = kPalette[next++ % kPalette.size()];
      const ServerId sid =
          use_index ? index->best_fit(demand) : best_fit_server(cluster, demand);
      benchmark::DoNotOptimize(sid);
      if (sid == kInvalidServer) continue;
      cluster.server(static_cast<std::size_t>(sid)).allocate(demand);
      if (index) index->on_server_changed(sid);
      live.emplace_back(sid, demand);
      ++placed;
    }
  }
  state.counters["copies/s"] = benchmark::Counter(
      static_cast<double>(placed), benchmark::Counter::kIsRate);
  if (index) {
    const auto& c = index->counters();
    state.counters["scan/query"] =
        c.queries > 0 ? static_cast<double>(c.servers_scanned) /
                            static_cast<double>(c.queries)
                      : 0.0;
  }
}

void BM_PlacementLinear(benchmark::State& state) { churn(state, false); }
void BM_PlacementIndexed(benchmark::State& state) { churn(state, true); }

BENCHMARK(BM_PlacementLinear)->Arg(30)->Arg(300)->Arg(3000)->Arg(30000);
BENCHMARK(BM_PlacementIndexed)->Arg(30)->Arg(300)->Arg(3000)->Arg(30000);

}  // namespace
