// Outside-in router instrumentation for the replay benchmark.
//
// TimedRouter decorates any net::Router: every virtual is forwarded to
// the wrapped router unchanged, so a decorated replay takes exactly the
// code path of the bare one (the benchmark checks that their counters
// digest identically).  The five routing hooks are additionally timed
// with steady_clock into per-shard slots selected by
// sim::current_shard(), so concurrent shard loops never share a slot.
//
// NullRouter is the no-op router the benchmark uses to time the engine
// alone (trace cursor, event queue, dispatch, workload generation).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/router.hpp"
#include "sim/shard_coordinator.hpp"

namespace replaybench {

enum Hook : std::size_t {
  kOnArrival,
  kOnDeparture,
  kOnContact,
  kOnPacketGenerated,
  kOnTimeUnit,
  kNumHooks,
};

inline constexpr std::array<const char*, kNumHooks> kHookNames = {
    "on_arrival", "on_departure", "on_contact", "on_packet_generated",
    "on_time_unit"};

struct HookTotals {
  std::array<std::uint64_t, kNumHooks> ns{};
  std::array<std::uint64_t, kNumHooks> calls{};

  [[nodiscard]] std::uint64_t total_ns() const {
    std::uint64_t t = 0;
    for (const auto v : ns) t += v;
    return t;
  }
};

class TimedRouter final : public dtn::net::Router {
 public:
  explicit TimedRouter(dtn::net::Router& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool uses_stations() const override {
    return inner_.uses_stations();
  }
  [[nodiscard]] bool shard_safe() const override {
    return inner_.shard_safe();
  }
  void prepare_shards(std::size_t num_shards) override {
    slots_.assign(num_shards, Slot{});
    inner_.prepare_shards(num_shards);
  }
  void on_init(dtn::net::Network& net) override { inner_.on_init(net); }

  void on_arrival(dtn::net::Network& net, dtn::net::NodeId node,
                  dtn::net::LandmarkId l) override {
    const Span span(*this, kOnArrival);
    inner_.on_arrival(net, node, l);
  }
  void on_departure(dtn::net::Network& net, dtn::net::NodeId node,
                    dtn::net::LandmarkId l) override {
    const Span span(*this, kOnDeparture);
    inner_.on_departure(net, node, l);
  }
  /// Part of departure processing: its time is folded into
  /// on_departure, without a call of its own.
  void on_departure_batch_begin(dtn::net::Network& net,
                                dtn::net::LandmarkId l,
                                std::size_t count) override {
    const Span span(*this, kOnDeparture, /*count_call=*/false);
    inner_.on_departure_batch_begin(net, l, count);
  }
  void on_contact(dtn::net::Network& net, dtn::net::NodeId arriving,
                  dtn::net::NodeId present, dtn::net::LandmarkId l) override {
    const Span span(*this, kOnContact);
    inner_.on_contact(net, arriving, present, l);
  }
  void on_packet_generated(dtn::net::Network& net,
                           dtn::net::PacketId pid) override {
    const Span span(*this, kOnPacketGenerated);
    inner_.on_packet_generated(net, pid);
  }
  void on_time_unit(dtn::net::Network& net, std::size_t unit_index) override {
    const Span span(*this, kOnTimeUnit);
    inner_.on_time_unit(net, unit_index);
  }

  void on_node_crash(dtn::net::Network& net, dtn::net::NodeId node) override {
    inner_.on_node_crash(net, node);
  }
  void on_node_reboot(dtn::net::Network& net, dtn::net::NodeId node) override {
    inner_.on_node_reboot(net, node);
  }
  void on_station_outage(dtn::net::Network& net,
                         dtn::net::LandmarkId l) override {
    inner_.on_station_outage(net, l);
  }
  void on_station_recovery(dtn::net::Network& net,
                           dtn::net::LandmarkId l) override {
    inner_.on_station_recovery(net, l);
  }

  [[nodiscard]] bool checkpointable() const override {
    return inner_.checkpointable();
  }
  void checkpoint_save(dtn::persist::Writer& w) const override {
    inner_.checkpoint_save(w);
  }
  void checkpoint_load(dtn::persist::Reader& r,
                       dtn::net::Network& net) override {
    inner_.checkpoint_load(r, net);
  }
  void audit(const dtn::net::Network& net,
             dtn::sim::AuditReport& report) const override {
    inner_.audit(net, report);
  }

  /// Hook totals summed over shards.
  [[nodiscard]] HookTotals totals() const {
    HookTotals sum;
    for (const Slot& s : slots_) {
      for (std::size_t h = 0; h < kNumHooks; ++h) {
        sum.ns[h] += s.t.ns[h];
        sum.calls[h] += s.t.calls[h];
      }
    }
    return sum;
  }
  /// Summed hook time of each shard slot (one slot in serial runs).
  [[nodiscard]] std::vector<std::uint64_t> per_shard_ns() const {
    std::vector<std::uint64_t> out;
    for (const Slot& s : slots_) out.push_back(s.t.total_ns());
    return out;
  }

 private:
  // One cache line apart, so shards timing concurrently never contend.
  struct alignas(64) Slot {
    HookTotals t;
  };

  class Span {
   public:
    Span(TimedRouter& r, Hook h, bool count_call = true)
        : slot_(r.slots_[dtn::sim::current_shard()].t),
          hook_(h),
          start_(std::chrono::steady_clock::now()) {
      if (count_call) ++slot_.calls[h];
    }
    ~Span() {
      slot_.ns[hook_] += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    HookTotals& slot_;
    Hook hook_;
    std::chrono::steady_clock::time_point start_;
  };

  dtn::net::Router& inner_;
  std::vector<Slot> slots_{1};
};

/// A router that routes nothing.  It claims shard safety truthfully (it
/// has no state), so the sharded engine accepts it.
class NullRouter final : public dtn::net::Router {
 public:
  [[nodiscard]] std::string name() const override { return "null"; }
  [[nodiscard]] bool shard_safe() const override { return true; }
};

}  // namespace replaybench
