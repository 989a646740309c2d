// The benchmark's four named workloads (see replaybench/README.md for
// why each exists and which layers it stresses).  A workload is one
// fixed scenario: its mobility trace comes from a fixed generator seed,
// and the benchmark seed draws the packet workload, so the same seed
// always gives the same inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "net/network.hpp"
#include "net/router.hpp"
#include "trace/trace.hpp"

namespace replaybench {

/// Which public Network entry point a workload replays through.
enum class Engine {
  kSerial,   ///< Network::run()
  kSharded,  ///< Network::run_sharded(shards, pool)
  kServe,    ///< Network::run(CheckpointManager&), suspended and resumed
};

enum class TraceKind { kCampus, kCity, kBus };
enum class RouterKind { kDtnFlow, kEpidemic };

struct Workload {
  std::string_view name;
  Engine engine = Engine::kSerial;
  TraceKind trace = TraceKind::kCampus;
  RouterKind router = RouterKind::kDtnFlow;
  /// Simulated trace length.
  double days = 1.0;
  std::size_t shards = 1;
  /// kServe: snapshot cadence in dispatched events.
  std::uint64_t snapshot_every_events = 0;

  /// The workload's fixed mobility trace (seed-independent).
  [[nodiscard]] dtn::trace::Trace make_trace() const;
  /// The packet workload drawn from `seed`.
  [[nodiscard]] dtn::net::WorkloadConfig make_config(std::uint64_t seed) const;
  [[nodiscard]] std::unique_ptr<dtn::net::Router> make_router() const;
};

[[nodiscard]] std::span<const Workload> all_workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace replaybench
