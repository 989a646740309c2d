#include "workloads.hpp"

#include <array>

#include "core/dtn_flow_router.hpp"
#include "net/bundle_store.hpp"
#include "routing/epidemic.hpp"
#include "trace/bus_generator.hpp"
#include "trace/campus_generator.hpp"
#include "trace/city_generator.hpp"

namespace replaybench {

namespace {

using dtn::trace::kDay;

// Generator seed of every workload's fixed trace.  The generators tie
// topology (bus routes, communities) to their seed, so a varying trace
// seed would vary the scenario, not just its sampling.
constexpr std::uint64_t kTraceSeed = 1;

constexpr std::array<Workload, 4> kWorkloads = {{
    {"campus-flow", Engine::kSerial, TraceKind::kCampus, RouterKind::kDtnFlow,
     64.0, 1, 0},
    {"city-sharded", Engine::kSharded, TraceKind::kCity, RouterKind::kDtnFlow,
     2.0, 4, 0},
    {"bus-serve", Engine::kServe, TraceKind::kBus, RouterKind::kDtnFlow, 60.0,
     1, 200000},
    {"bus-epidemic", Engine::kSerial, TraceKind::kBus, RouterKind::kEpidemic,
     120.0, 1, 0},
}};

}  // namespace

dtn::trace::Trace Workload::make_trace() const {
  switch (trace) {
    case TraceKind::kCampus: {
      // DART-shaped campus.
      dtn::trace::CampusTraceConfig cfg;
      cfg.num_nodes = 256;
      cfg.num_landmarks = 80;
      cfg.num_communities = 20;
      cfg.days = days;
      cfg.seed = kTraceSeed;
      return dtn::trace::generate_campus_trace(cfg);
    }
    case TraceKind::kCity: {
      dtn::trace::CityTraceConfig cfg;
      cfg.num_pedestrians = 2000;
      cfg.num_buses = 40;
      cfg.num_landmarks = 200;
      cfg.num_districts = 16;
      cfg.days = days;
      cfg.seed = kTraceSeed;
      return dtn::trace::generate_city_trace(cfg);
    }
    case TraceKind::kBus: {
      // DNET-shaped bus network; every bus leaves its last stop at the
      // same service-end instant each day, so departures tie in runs.
      dtn::trace::BusTraceConfig cfg;
      cfg.num_buses = 34;
      cfg.num_landmarks = 18;
      cfg.days = days;
      cfg.seed = kTraceSeed;
      return dtn::trace::generate_bus_trace(cfg);
    }
  }
  return {};
}

dtn::net::WorkloadConfig Workload::make_config(std::uint64_t seed) const {
  dtn::net::WorkloadConfig cfg;
  cfg.seed = seed * 97 + 3;
  switch (trace) {
    case TraceKind::kCampus:
      cfg.packets_per_landmark_per_day = 30.0;
      cfg.ttl = 4.0 * kDay;
      cfg.node_memory_kb = 40;
      cfg.time_unit = 1.0 * kDay;
      break;
    case TraceKind::kCity:
      // About 1250 packets: enough that the success rate holds steady
      // across seeds, few enough that the DV plane keeps the router time.
      cfg.packets_per_landmark_per_day = 5.0;
      cfg.ttl = 0.5 * kDay;
      cfg.node_memory_kb = 20;
      cfg.time_unit = 0.25 * kDay;
      break;
    case TraceKind::kBus:
      if (router == RouterKind::kEpidemic) {
        cfg.packets_per_landmark_per_day = 40.0;
        cfg.ttl = 4.0 * kDay;
        cfg.node_memory_kb = 60;
        cfg.time_unit = 0.5 * kDay;
        cfg.store.policy = dtn::net::EvictionPolicy::kDropOldest;
        cfg.store.dedup = true;
      } else {
        // The paper's full DNET load.
        cfg.packets_per_landmark_per_day = 500.0;
        cfg.ttl = 4.0 * kDay;
        cfg.node_memory_kb = 2000;
        cfg.time_unit = 0.5 * kDay;
        cfg.store.station_memory_kb = 300;
        cfg.store.policy = dtn::net::EvictionPolicy::kDropOldest;
      }
      break;
  }
  // Checkpoint stepping dispatches event by event; the plain run() the
  // serve workload is compared and timed against must match it.
  cfg.batch_contacts = engine != Engine::kServe;
  return cfg;
}

std::unique_ptr<dtn::net::Router> Workload::make_router() const {
  if (router == RouterKind::kEpidemic) {
    return std::make_unique<dtn::routing::EpidemicRouter>();
  }
  return std::make_unique<dtn::core::DtnFlowRouter>();
}

std::span<const Workload> all_workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace replaybench
