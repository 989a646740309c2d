// SIMD-vs-scalar bit-equality tests (docs/simd-hot-path.md).
//
// The vectorized hot paths — the predictor's conditional distribution,
// the routing table's column recompute/merge scan, and the router's
// fused carrier-score refinement — promise results bit-identical to
// the scalar loops they replaced: only per-lane IEEE-exact operations
// are used, never fusion or reassociation.  These tests run both code
// paths in one binary via simd::force_scalar_for_test and compare
// outputs through std::bit_cast, so a single flipped mantissa bit
// fails.  On a build where SIMD is compiled out (DTN_SIMD_SCALAR or a
// non-GNU compiler) both paths are the scalar loop and the tests pass
// trivially — that is the point of the dispatch contract, not a gap.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/dtn_flow_router.hpp"
#include "core/markov_predictor.hpp"
#include "core/routing_table.hpp"
#include "net/network.hpp"
#include "trace/campus_generator.hpp"
#include "util/simd.hpp"

namespace dtn {
namespace {

using core::DistanceVector;
using core::DtnFlowRouter;
using core::MarkovPredictor;
using core::Route;
using core::RoutingTable;
using net::Network;
using net::WorkloadConfig;
using trace::kDay;

// Restores the previous force-scalar state on scope exit, so these
// tests compose with a CI leg that sets DTN_SIMD_FORCE_SCALAR=1 for
// the whole binary.
class ScalarGuard {
 public:
  explicit ScalarGuard(bool on) : prev_(simd::scalar_forced()) {
    simd::force_scalar_for_test(on);
  }
  ~ScalarGuard() { simd::force_scalar_for_test(prev_); }
  ScalarGuard(const ScalarGuard&) = delete;
  ScalarGuard& operator=(const ScalarGuard&) = delete;

 private:
  bool prev_;
};

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "lane " << i << ": " << a[i] << " vs " << b[i];
  }
}

// A deterministic pseudo-random walk that revisits contexts, so the
// distribution has several successors per context — enough to cover
// full vector lanes plus a scalar remainder at any lane width.
MarkovPredictor trained_predictor(std::size_t landmarks, std::size_t order) {
  MarkovPredictor p(landmarks, order);
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    p.record_visit(static_cast<trace::LandmarkId>(x % landmarks));
  }
  return p;
}

TEST(SimdParity, PredictorDistributionMatchesScalarBitForBit) {
  for (const std::size_t landmarks : {3u, 7u, 16u, 33u}) {
    for (const std::size_t order : {1u, 2u}) {
      const auto p = trained_predictor(landmarks, order);
      std::vector<double> vec_out;
      std::vector<double> scalar_out;
      p.next_distribution(vec_out);
      {
        ScalarGuard guard(true);
        p.next_distribution(scalar_out);
      }
      expect_bitwise_equal(vec_out, scalar_out);
    }
  }
}

// Merge a fixed sequence of distance vectors into two tables, one per
// code path, and compare every cached route bit for bit (primary and
// backup next hop and delay).  Only merge's changed-cell scan differs
// by path; column solves and the all-dirty sweep are scalar in both.
RoutingTable merged_table(std::size_t n) {
  RoutingTable t(/*self=*/0, n);
  for (std::size_t v = 1; v < n; ++v) {
    t.set_link_delay(static_cast<trace::LandmarkId>(v),
                     10.0 + 3.7 * static_cast<double>(v));
  }
  std::uint64_t x = 2463534242u;
  for (int round = 0; round < 6; ++round) {
    for (std::size_t origin = 1; origin < n; ++origin) {
      DistanceVector dv;
      dv.origin = static_cast<trace::LandmarkId>(origin);
      dv.seq = static_cast<std::uint64_t>(round);
      dv.delay.resize(n);
      for (std::size_t d = 0; d < n; ++d) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        // A mix of finite delays and unreachable cells.
        dv.delay[d] = (x % 5 == 0) ? core::kInfiniteDelay
                                   : 1.0 + static_cast<double>(x % 1000) / 7.0;
      }
      dv.delay[origin] = 0.0;
      (void)t.merge(dv);
    }
  }
  return t;
}

TEST(SimdParity, RoutingTableColumnsMatchScalarBitForBit) {
  for (const std::size_t n : {4u, 18u, 31u}) {
    auto vec_t = merged_table(n);
    auto scalar_t = [n] {
      ScalarGuard guard(true);
      return merged_table(n);
    }();
    for (std::size_t d = 0; d < n; ++d) {
      const Route vec_r = vec_t.route(static_cast<trace::LandmarkId>(d));
      Route scalar_r;
      {
        ScalarGuard guard(true);
        scalar_r = scalar_t.route(static_cast<trace::LandmarkId>(d));
      }
      EXPECT_EQ(vec_r.next, scalar_r.next) << "dst " << d;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(vec_r.delay),
                std::bit_cast<std::uint64_t>(scalar_r.delay))
          << "dst " << d;
      EXPECT_EQ(vec_r.backup_next, scalar_r.backup_next) << "dst " << d;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(vec_r.backup_delay),
                std::bit_cast<std::uint64_t>(scalar_r.backup_delay))
          << "dst " << d;
    }
  }
}

// End-to-end: a campus replay exercises the carrier-score refinement
// sweep, the predictor distribution and the routing-table merge scan
// together; counters, per-packet vectors and router diagnostics must
// not differ by a single bit between the two paths.
struct RunResult {
  net::RunCounters counters;
  core::DtnFlowDiagnostics diag;
  std::uint64_t events;
};

RunResult run_campus(bool force_scalar) {
  ScalarGuard guard(force_scalar);
  trace::CampusTraceConfig tc;
  tc.num_nodes = 50;
  tc.num_landmarks = 18;
  tc.num_communities = 5;
  tc.days = 8.0;
  tc.seed = 13;
  const auto trace = trace::generate_campus_trace(tc);

  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 4.0;
  cfg.ttl = 4.0 * kDay;
  cfg.time_unit = 1.0 * kDay;
  cfg.warmup_fraction = 0.25;
  cfg.node_memory_kb = 30;
  cfg.seed = 7;

  core::DtnFlowConfig rc;
  rc.dead_end_prevention = true;
  rc.load_balancing = true;
  rc.node_to_node_relay = true;
  DtnFlowRouter router(rc);
  Network net(trace, router, cfg);
  net.run();
  return {net.counters(), router.diagnostics(), net.events_executed()};
}

TEST(SimdParity, CampusReplayMatchesScalarBitForBit) {
  const RunResult vec = run_campus(/*force_scalar=*/false);
  ASSERT_GT(vec.counters.generated, 50u);  // non-vacuous workload
  ASSERT_GT(vec.counters.delivered, 0u);

  const RunResult scalar = run_campus(/*force_scalar=*/true);
  EXPECT_EQ(vec.counters, scalar.counters);
  EXPECT_EQ(vec.diag, scalar.diag);
  EXPECT_EQ(vec.events, scalar.events);
}

}  // namespace
}  // namespace dtn
