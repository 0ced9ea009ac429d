// Experiment E12 — §3.1.4's simulator scalability: "capable of simulating
// thousands of virtual nodes on a single physical machine".
//
// For each N we boot a seeded DHT network, apply a light put/get workload,
// run 30 virtual seconds, and report wall-clock time, executed events, and
// events per wall second. The claim holds if wall time grows roughly
// linearly in total event count (no super-linear blowup with N).
//
// Memory: `peers/node` is the mean number of UdpCC peer-state entries per
// node at the end of the run, and `peak RSS MB` the process's high-water
// mark (VmHWM) so far. Rows run in increasing N, so each row's peak is
// that N's own (earlier, smaller runs stay below it).
// PIER_BENCH_SMOKE=1 runs only N in {100, 500}.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "overlay/sim_overlay.h"

namespace pier {
namespace {

const std::vector<int> kWidths = {8, 10, 12, 16, 14, 12, 12};

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void Measure(uint32_t n) {
  auto t0 = std::chrono::steady_clock::now();

  SimOverlay::Options opts;
  opts.sim.seed = 23;
  opts.seed_routing = true;
  opts.settle_time = 1 * kSecond;
  SimOverlay net(n, opts);

  // One put and one get per node, spread over the run.
  Rng rng(99);
  for (uint32_t i = 0; i < n; ++i) {
    net.dht(i)->Put("load", "k" + std::to_string(rng.Next() % (n * 4)), "s",
                    "value", 60 * kSecond);
  }
  net.RunFor(10 * kSecond);
  for (uint32_t i = 0; i < n; ++i) {
    net.dht(i)->Get("load", "k" + std::to_string(rng.Next() % (n * 4)),
                    [](const Status&, std::vector<DhtItem>) {});
  }
  net.RunFor(20 * kSecond);

  auto t1 = std::chrono::steady_clock::now();
  double wall_s = std::chrono::duration<double>(t1 - t0).count();
  uint64_t events = net.loop()->events_executed();
  uint64_t peers = 0;
  for (uint32_t i = 0; i < n; ++i) {
    peers += net.dht(i)->router()->transport()->peer_count();
  }

  bench::Row({std::to_string(n), bench::Fmt(wall_s, 2),
              std::to_string(events),
              bench::Fmt(events / wall_s / 1000.0, 0) + "k/s",
              bench::Fmt(wall_s / 30.0, 3),
              bench::Fmt(static_cast<double>(peers) / n, 1),
              bench::Fmt(PeakRssMb(), 1)},
             kWidths);
}

void Run() {
  bench::Title("E12: simulator scalability (30 virtual seconds per N)");
  bench::Row({"N", "wall s", "events", "events/wall-s", "wall-s/sim-s",
              "peers/node", "peak RSS MB"},
             kWidths);
  const bool smoke = std::getenv("PIER_BENCH_SMOKE") != nullptr;
  const std::vector<uint32_t> sizes =
      smoke ? std::vector<uint32_t>{100, 500}
            : std::vector<uint32_t>{100, 500, 1000, 2000, 4000};
  for (uint32_t n : sizes) Measure(n);
  bench::Note(
      "expected shape: events grow ~linearly with N (maintenance dominates); "
      "events/wall-second stays in the same order of magnitude, i.e. "
      "thousands of nodes are simulable on one machine.");
}

}  // namespace
}  // namespace pier

int main() {
  pier::Run();
  return 0;
}
