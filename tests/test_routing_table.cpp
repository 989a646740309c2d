#include "core/routing_table.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dtn::core {
namespace {

TEST(RoutingTable, SelfRouteIsZero) {
  RoutingTable t(2, 5);
  const Route r = t.route(2);
  EXPECT_EQ(r.next, 2u);
  EXPECT_DOUBLE_EQ(r.delay, 0.0);
}

TEST(RoutingTable, UnreachableWithoutLinks) {
  RoutingTable t(0, 4);
  EXPECT_FALSE(t.route(3).reachable());
  EXPECT_TRUE(std::isinf(t.delay_to(3)));
  EXPECT_DOUBLE_EQ(t.coverage(), 0.0);
}

TEST(RoutingTable, DirectLinkRoutesImmediately) {
  RoutingTable t(0, 3);
  t.set_link_delay(1, 5.0);
  const Route r = t.route(1);
  EXPECT_EQ(r.next, 1u);
  EXPECT_DOUBLE_EQ(r.delay, 5.0);
  EXPECT_FALSE(t.route(2).reachable());
  EXPECT_DOUBLE_EQ(t.coverage(), 0.5);
}

// The paper's Fig. 7 worked example, §IV-C.2: landmark receives a table
// from neighbor l6 (link delay 7) with entries for l3/l9/l4 and updates
// (1,1,8),(4,7,20),(7,7,6),(9,7,34) to
// (1,1,8),(3,6,17),(4,6,18),(7,7,6),(9,7,34).
TEST(RoutingTable, PaperFigureSevenExample) {
  RoutingTable t(5, 10);
  t.set_link_delay(1, 8.0);
  t.set_link_delay(7, 6.0);
  t.set_link_delay(6, 7.0);
  // Prior state: routes to 4 and 9 go through 7 (adv 14 and 28).
  DistanceVector from7;
  from7.origin = 7;
  from7.seq = 0;
  from7.delay.assign(10, kInfiniteDelay);
  from7.delay[7] = 0.0;
  from7.delay[4] = 14.0;
  from7.delay[9] = 28.0;
  ASSERT_TRUE(t.merge(from7));
  EXPECT_EQ(t.route(4).next, 7u);
  EXPECT_DOUBLE_EQ(t.route(4).delay, 20.0);
  EXPECT_EQ(t.route(9).next, 7u);
  EXPECT_DOUBLE_EQ(t.route(9).delay, 34.0);

  // Now the table from l6 arrives: (3, 10), (9, 30), (4, 11).
  DistanceVector from6;
  from6.origin = 6;
  from6.seq = 0;
  from6.delay.assign(10, kInfiniteDelay);
  from6.delay[6] = 0.0;
  from6.delay[3] = 10.0;
  from6.delay[9] = 30.0;
  from6.delay[4] = 11.0;
  ASSERT_TRUE(t.merge(from6));

  EXPECT_EQ(t.route(1).next, 1u);
  EXPECT_DOUBLE_EQ(t.route(1).delay, 8.0);
  EXPECT_EQ(t.route(3).next, 6u);          // inserted: 7 + 10 = 17
  EXPECT_DOUBLE_EQ(t.route(3).delay, 17.0);
  EXPECT_EQ(t.route(4).next, 6u);          // replaced: 7 + 11 = 18 < 20
  EXPECT_DOUBLE_EQ(t.route(4).delay, 18.0);
  EXPECT_EQ(t.route(7).next, 7u);
  EXPECT_DOUBLE_EQ(t.route(7).delay, 6.0);
  EXPECT_EQ(t.route(9).next, 7u);          // kept: 7 + 30 = 37 > 34
  EXPECT_DOUBLE_EQ(t.route(9).delay, 34.0);
}

TEST(RoutingTable, StaleVectorDiscarded) {
  RoutingTable t(0, 3);
  t.set_link_delay(1, 1.0);
  DistanceVector dv;
  dv.origin = 1;
  dv.seq = 5;
  dv.delay = {2.0, 0.0, 3.0};
  ASSERT_TRUE(t.merge(dv));
  EXPECT_DOUBLE_EQ(t.delay_to(2), 4.0);
  // Older vector with a better-looking delay must be ignored.
  dv.seq = 4;
  dv.delay = {2.0, 0.0, 0.5};
  EXPECT_FALSE(t.merge(dv));
  EXPECT_DOUBLE_EQ(t.delay_to(2), 4.0);
  // Newer one is accepted.
  dv.seq = 6;
  ASSERT_TRUE(t.merge(dv));
  EXPECT_DOUBLE_EQ(t.delay_to(2), 1.5);
}

TEST(RoutingTable, SelfOriginVectorIgnored) {
  RoutingTable t(0, 2);
  DistanceVector dv;
  dv.origin = 0;
  dv.seq = 0;
  dv.delay = {0.0, 1.0};
  EXPECT_FALSE(t.merge(dv));
}

TEST(RoutingTable, BackupNextHopIsSecondBestNeighbor) {
  RoutingTable t(0, 4);
  t.set_link_delay(1, 1.0);
  t.set_link_delay(2, 2.0);
  DistanceVector dv1{1, 0, {kInfiniteDelay, 0.0, kInfiniteDelay, 5.0}};
  DistanceVector dv2{2, 0, {kInfiniteDelay, kInfiniteDelay, 0.0, 5.0}};
  ASSERT_TRUE(t.merge(dv1));
  ASSERT_TRUE(t.merge(dv2));
  const Route r = t.route(3);
  EXPECT_EQ(r.next, 1u);                  // 1 + 5 = 6
  EXPECT_DOUBLE_EQ(r.delay, 6.0);
  EXPECT_EQ(r.backup_next, 2u);           // 2 + 5 = 7
  EXPECT_DOUBLE_EQ(r.backup_delay, 7.0);
}

TEST(RoutingTable, SnapshotAdvertisesOwnDelays) {
  RoutingTable t(0, 3);
  t.set_link_delay(1, 4.0);
  const DistanceVector dv = t.snapshot();
  EXPECT_EQ(dv.origin, 0u);
  EXPECT_DOUBLE_EQ(dv.delay[0], 0.0);
  EXPECT_DOUBLE_EQ(dv.delay[1], 4.0);
  EXPECT_TRUE(std::isinf(dv.delay[2]));
  const DistanceVector dv2 = t.snapshot();
  EXPECT_GT(dv2.seq, dv.seq);
}

TEST(RoutingTable, LinkDelayChangePropagatesToRoutes) {
  RoutingTable t(0, 3);
  t.set_link_delay(1, 10.0);
  DistanceVector dv{1, 0, {kInfiniteDelay, 0.0, 2.0}};
  ASSERT_TRUE(t.merge(dv));
  EXPECT_DOUBLE_EQ(t.delay_to(2), 12.0);
  t.set_link_delay(1, 1.0);
  EXPECT_DOUBLE_EQ(t.delay_to(2), 3.0);
  t.set_link_delay(1, kInfiniteDelay);  // link disappears
  EXPECT_FALSE(t.route(2).reachable());
}

TEST(RoutingTable, PinOverridesAndBackupIsOrganic) {
  RoutingTable t(0, 4);
  t.set_link_delay(1, 1.0);
  DistanceVector dv{1, 0, {kInfiniteDelay, 0.0, kInfiniteDelay, 2.0}};
  ASSERT_TRUE(t.merge(dv));
  EXPECT_EQ(t.route(3).next, 1u);
  t.pin(3, 2, 0.5);
  EXPECT_TRUE(t.is_pinned(3));
  const Route r = t.route(3);
  EXPECT_EQ(r.next, 2u);
  EXPECT_DOUBLE_EQ(r.delay, 0.5);
  EXPECT_EQ(r.backup_next, 1u);  // the organic best survives as backup
  t.unpin(3);
  EXPECT_FALSE(t.is_pinned(3));
  EXPECT_EQ(t.route(3).next, 1u);
}

TEST(RoutingTable, NextHopsVectorForStabilityMetric) {
  RoutingTable t(0, 3);
  t.set_link_delay(1, 1.0);
  const auto hops = t.next_hops();
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], kNoLandmark);
}

// The classic distance-vector pathology, demonstrated: after a link
// disappears, stale advertisements keep a phantom route alive until
// fresher vectors flush it — exactly the "untimely update" failure mode
// the paper's loop detection (§IV-E.2) exists for.
TEST(RoutingTable, StaleAdvertisementsSurviveLinkRemoval) {
  // 0 -1- 1 -1- 2; node 0 reaches 2 via 1 with delay 2.
  RoutingTable t0(0, 3);
  t0.set_link_delay(1, 1.0);
  DistanceVector dv1{1, 0, {1.0, 0.0, 1.0}};
  ASSERT_TRUE(t0.merge(dv1));
  EXPECT_DOUBLE_EQ(t0.delay_to(2), 2.0);
  // The 1-2 link dies.  Landmark 0 still believes the old vector...
  EXPECT_DOUBLE_EQ(t0.delay_to(2), 2.0);
  // ...until landmark 1 advertises the loss (infinite delay).
  DistanceVector dv1b{1, 1, {1.0, 0.0, kInfiniteDelay}};
  ASSERT_TRUE(t0.merge(dv1b));
  EXPECT_FALSE(t0.route(2).reachable());
}

// -- incremental vs. full recompute equivalence ------------------------
//
// recompute() only revisits destination columns marked dirty since the
// last query.  Feed two tables the exact same update stream, but query
// one after every mutation (forcing many small incremental recomputes)
// and the other only at the end (one bulk recompute): every route —
// including backup next hops and pins — must agree exactly.  Both
// tables patch routes in place on merge, so this checks query-schedule
// independence; RoutingTableReference below checks against a model
// that re-solves every column from scratch.

void ExpectSameRoutes(const RoutingTable& interleaved,
                      const RoutingTable& batched) {
  ASSERT_EQ(interleaved.num_landmarks(), batched.num_landmarks());
  for (std::size_t d = 0; d < interleaved.num_landmarks(); ++d) {
    const auto dst = static_cast<LandmarkId>(d);
    const Route a = interleaved.route(dst);
    const Route b = batched.route(dst);
    EXPECT_EQ(a.next, b.next) << "dst=" << d;
    EXPECT_EQ(a.delay, b.delay) << "dst=" << d;
    EXPECT_EQ(a.backup_next, b.backup_next) << "dst=" << d;
    EXPECT_EQ(a.backup_delay, b.backup_delay) << "dst=" << d;
    EXPECT_EQ(interleaved.is_pinned(dst), batched.is_pinned(dst));
  }
  EXPECT_EQ(interleaved.coverage(), batched.coverage());
}

TEST(RoutingTableIncremental, MatchesFullRecomputeWithPinsAndBackups) {
  RoutingTable inc(0, 5);
  RoutingTable full(0, 5);
  const auto apply = [&](auto&& op) { op(inc); op(full); };
  const auto touch_all = [&] {
    for (std::size_t d = 0; d < inc.num_landmarks(); ++d) {
      (void)inc.route(static_cast<LandmarkId>(d));
    }
  };

  apply([](RoutingTable& t) { t.set_link_delay(1, 1.0); });
  touch_all();
  apply([](RoutingTable& t) { t.set_link_delay(2, 3.0); });
  touch_all();
  // Two neighbors both reach 3 and 4: exercises backup selection.
  DistanceVector dv1{1, 0, {kInfiniteDelay, 0.0, 9.0, 5.0, 2.0}};
  DistanceVector dv2{2, 0, {kInfiniteDelay, 9.0, 0.0, 1.0, 2.0}};
  apply([&](RoutingTable& t) { ASSERT_TRUE(t.merge(dv1)); });
  touch_all();
  apply([&](RoutingTable& t) { ASSERT_TRUE(t.merge(dv2)); });
  touch_all();
  // Pin, re-merge updated vectors underneath the pin, then unpin.
  apply([](RoutingTable& t) { t.pin(3, 4, 0.25); });
  touch_all();
  DistanceVector dv1b{1, 1, {kInfiniteDelay, 0.0, 9.0, 0.5, 2.0}};
  apply([&](RoutingTable& t) { ASSERT_TRUE(t.merge(dv1b)); });
  touch_all();
  ExpectSameRoutes(inc, full);  // pinned route + organic backup agree
  apply([](RoutingTable& t) { t.unpin(3); });
  touch_all();
  // Link-cost change after partial queries invalidates every column.
  apply([](RoutingTable& t) { t.set_link_delay(1, 6.0); });
  (void)inc.route(3);  // query only one column before the final sweep
  ExpectSameRoutes(inc, full);
}

TEST(RoutingTableIncremental, RandomizedOpStreamsAgree) {
  dtn::Rng rng(99);
  const std::size_t n = 12;
  RoutingTable inc(0, n);
  RoutingTable full(0, n);
  std::vector<std::uint64_t> seq(n, 0);
  for (int step = 0; step < 400; ++step) {
    const auto roll = rng.uniform_index(10);
    if (roll < 3) {  // link change (occasionally removal)
      const auto v = static_cast<LandmarkId>(1 + rng.uniform_index(n - 1));
      const double d =
          rng.uniform_index(8) == 0 ? kInfiniteDelay : rng.uniform(1.0, 20.0);
      inc.set_link_delay(v, d);
      full.set_link_delay(v, d);
    } else if (roll < 8) {  // merge a random (sometimes stale) vector
      const auto origin = static_cast<LandmarkId>(1 + rng.uniform_index(n - 1));
      DistanceVector dv;
      dv.origin = origin;
      dv.seq = rng.uniform_index(4) == 0 && seq[origin] > 0
                   ? seq[origin] - 1  // stale: must be a no-op on both
                   : seq[origin]++;
      dv.delay.assign(n, kInfiniteDelay);
      dv.delay[origin] = 0.0;
      for (std::size_t d = 0; d < n; ++d) {
        if (rng.uniform_index(3) != 0) dv.delay[d] = rng.uniform(0.0, 30.0);
      }
      EXPECT_EQ(inc.merge(dv), full.merge(dv));
    } else if (roll == 8) {  // pin / unpin
      const auto dst = static_cast<LandmarkId>(1 + rng.uniform_index(n - 1));
      if (rng.uniform_index(2) == 0) {
        const auto via = static_cast<LandmarkId>(1 + rng.uniform_index(n - 1));
        const double d = rng.uniform(0.0, 5.0);
        inc.pin(dst, via, d);
        full.pin(dst, via, d);
      } else {
        inc.unpin(dst);
        full.unpin(dst);
      }
    }
    // Query a random column on `inc` only: drains part of its dirty set
    // so its recompute schedule diverges maximally from `full`'s.
    (void)inc.route(static_cast<LandmarkId>(rng.uniform_index(n)));
    if (step % 50 == 49) ExpectSameRoutes(inc, full);
  }
  ExpectSameRoutes(inc, full);
}

// -- in-place route patching (docs/routing-hot-path.md) ---------------
//
// A merge patches each changed cell's cached route in O(1) and marks
// the column for a full re-solve only when the cached top two cannot
// decide the result.  One test per patch branch: each checks the
// resulting route, whether the column was re-solved (column_solves()),
// and that every clean column still equals the scalar reference scan
// (RoutingTable::audit).

// self = 0, neighbors 1..3 at link delays `links`, destination 4, and a
// non-neighbor origin 5.  Each origin's vector is kept so a test can
// change exactly one advertised cell per merge.
class PatchFixture {
 public:
  static constexpr LandmarkId kDst = 4;
  static constexpr std::size_t kN = 6;

  PatchFixture(std::vector<double> links, std::vector<double> adv_to_dst)
      : table_(0, kN), vectors_(kN) {
    for (LandmarkId v = 1; v <= 3; ++v) {
      table_.set_link_delay(v, links[v - 1]);
    }
    for (LandmarkId o = 1; o < kN; ++o) {
      vectors_[o] =
          DistanceVector{o, 0, std::vector<double>(kN, kInfiniteDelay)};
      vectors_[o].delay[o] = 0.0;
      if (o <= 3) vectors_[o].delay[kDst] = adv_to_dst[o - 1];
      EXPECT_TRUE(table_.merge(vectors_[o]));
    }
    (void)solves_to_query();
  }

  // Re-advertise `origin`'s vector with one cell changed.
  void advertise(LandmarkId origin, double delay_to_dst) {
    DistanceVector& dv = vectors_[origin];
    ++dv.seq;
    dv.delay[kDst] = delay_to_dst;
    ASSERT_TRUE(table_.merge(dv));
  }

  // Route toward kDst plus the column solves the query needed.
  std::uint64_t solves_to_query() {
    const std::uint64_t before = table_.column_solves();
    route_ = table_.route(kDst);
    return table_.column_solves() - before;
  }

  void expect_route(LandmarkId next, double delay, LandmarkId backup,
                    double backup_delay) const {
    EXPECT_EQ(route_.next, next);
    EXPECT_EQ(route_.delay, delay);
    EXPECT_EQ(route_.backup_next, backup);
    EXPECT_EQ(route_.backup_delay, backup_delay);
    sim::AuditReport report;
    table_.audit(report);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }

  RoutingTable& table() { return table_; }

 private:
  RoutingTable table_;
  std::vector<DistanceVector> vectors_;
  Route route_;
};

// Costs: 1 -> 1+4 = 5 (best), 2 -> 2+4 = 6 (backup), 3 -> 3+5 = 8.
PatchFixture standard() {
  return PatchFixture({1.0, 2.0, 3.0}, {4.0, 4.0, 5.0});
}

TEST(RoutingTablePatch, BestImprovesInPlace) {
  auto f = standard();
  f.expect_route(1, 5.0, 2, 6.0);
  f.advertise(1, 2.0);
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(1, 3.0, 2, 6.0);
}

TEST(RoutingTablePatch, BestWorsensButStaysAheadOfBackup) {
  auto f = standard();
  f.advertise(1, 4.5);  // 5.5 < 6
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(1, 5.5, 2, 6.0);
  // An exact cost tie with the backup is won on the lower index.
  f.advertise(1, 5.0);  // 6 == 6, and 1 < 2
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(1, 6.0, 2, 6.0);
}

TEST(RoutingTablePatch, BestWorsensPastBackupRescans) {
  auto f = standard();
  f.advertise(1, 9.0);  // 10 > 6: the new runner-up is unknown
  EXPECT_EQ(f.solves_to_query(), 1u);
  f.expect_route(2, 6.0, 3, 8.0);
}

TEST(RoutingTablePatch, BestLosingATieOnIndexRescans) {
  // Costs: 1 -> 1+5 = 6 (backup), 2 -> 2+3 = 5 (best).
  PatchFixture f({1.0, 2.0, 3.0}, {5.0, 3.0, 9.0});
  f.expect_route(2, 5.0, 1, 6.0);
  f.advertise(2, 4.0);  // 6 == 6, but 2 > 1: the backup takes over
  EXPECT_EQ(f.solves_to_query(), 1u);
  f.expect_route(1, 6.0, 2, 6.0);
}

TEST(RoutingTablePatch, BackupOvertakesBestOnTieAtLowerIndex) {
  PatchFixture f({1.0, 2.0, 3.0}, {5.0, 3.0, 9.0});
  f.advertise(1, 4.0);  // 5 == 5, and 1 < 2: swap in place
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(1, 5.0, 2, 5.0);
}

TEST(RoutingTablePatch, BackupImprovesInPlace) {
  auto f = standard();
  f.advertise(2, 3.5);  // 5.5: still behind the best
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(1, 5.0, 2, 5.5);
  f.advertise(2, 3.0);  // 5 == 5, but 2 > 1: stays the backup
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(1, 5.0, 2, 5.0);
}

TEST(RoutingTablePatch, BackupWorsensRescans) {
  auto f = standard();
  f.advertise(2, 4.5);  // 6.5, still ahead of 3's 8 — unknown in O(1)
  EXPECT_EQ(f.solves_to_query(), 1u);
  f.expect_route(1, 5.0, 2, 6.5);
  f.advertise(2, 9.0);  // 11 > 8
  EXPECT_EQ(f.solves_to_query(), 1u);
  f.expect_route(1, 5.0, 3, 8.0);
}

TEST(RoutingTablePatch, OutsiderEntersTopTwoOnTie) {
  // Costs: 1 -> 1+9 = 10 (outsider), 2 -> 1+5 = 6 (backup), 3 -> 1+3 = 4.
  PatchFixture f({1.0, 1.0, 1.0}, {9.0, 5.0, 3.0});
  f.expect_route(3, 4.0, 2, 6.0);
  f.advertise(1, 5.0);  // 6 == 6, and 1 < 2: enters as the backup
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(3, 4.0, 1, 6.0);
  f.advertise(1, 3.0);  // 4 == 4, and 1 < 3: enters as the best
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(1, 4.0, 3, 4.0);
}

TEST(RoutingTablePatch, OutsiderTyingAtHigherIndexStaysOut) {
  auto f = standard();
  f.advertise(3, 3.0);  // 6 == 6, but 3 > 2: the backup keeps its slot
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(1, 5.0, 2, 6.0);
}

TEST(RoutingTablePatch, CellGoingToInfinity) {
  auto f = standard();
  f.advertise(3, kInfiniteDelay);  // the outsider drops out: no effect
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(1, 5.0, 2, 6.0);
  f.advertise(3, 5.0);  // and comes back behind the backup
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(1, 5.0, 2, 6.0);
  f.advertise(1, kInfiniteDelay);  // the best drops out
  EXPECT_EQ(f.solves_to_query(), 1u);
  f.expect_route(2, 6.0, 3, 8.0);
  f.advertise(3, kInfiniteDelay);  // the backup drops out
  EXPECT_EQ(f.solves_to_query(), 1u);
  f.expect_route(2, 6.0, kNoLandmark, kInfiniteDelay);
  f.advertise(2, 7.0);  // the sole candidate worsens: still the best
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(2, 9.0, kNoLandmark, kInfiniteDelay);
}

TEST(RoutingTablePatch, NonNeighbourOriginChangeIsIgnored) {
  auto f = standard();
  f.advertise(5, 0.5);  // origin 5 has no link: never a candidate
  EXPECT_EQ(f.solves_to_query(), 0u);
  f.expect_route(1, 5.0, 2, 6.0);
  // Once linked, the advertisement counts (the all-dirty re-solve).
  f.table().set_link_delay(5, 1.0);
  EXPECT_EQ(f.solves_to_query(), PatchFixture::kN);
  f.expect_route(5, 1.5, 1, 5.0);
}

TEST(RoutingTablePatch, PinnedColumnFallsBackToRescan) {
  auto f = standard();
  f.table().pin(PatchFixture::kDst, 3, 0.25);
  EXPECT_EQ(f.solves_to_query(), 1u);
  f.expect_route(3, 0.25, 1, 5.0);
  f.advertise(2, 1.0);  // would patch in place unpinned; re-solves here
  EXPECT_EQ(f.solves_to_query(), 1u);
  f.expect_route(3, 0.25, 2, 3.0);
}

TEST(RoutingTablePatch, DirtyColumnFallsBackToMarkDirty) {
  auto f = standard();
  f.advertise(1, 9.0);  // forces a rescan of the column...
  f.advertise(2, 1.0);  // ...so this cell must not patch the stale cache
  EXPECT_EQ(f.solves_to_query(), 1u);
  f.expect_route(2, 3.0, 3, 8.0);
  // After a link change every column is stale until the next query.
  f.table().set_link_delay(3, 0.5);
  f.advertise(3, 1.0);
  EXPECT_EQ(f.solves_to_query(), PatchFixture::kN);
  f.expect_route(3, 1.5, 2, 3.0);
}

// -- independent reference model ---------------------------------------
//
// A plain re-implementation of the table's contract — advertised
// matrix, staleness, expiry and pins — whose routes come from a
// lexicographic (cost, index) top-two scan.  It shares no code with
// RoutingTable, so it checks the in-place patching against a full
// recompute rather than against itself.
class ReferenceTable {
 public:
  ReferenceTable(LandmarkId self, std::size_t n)
      : self_(self),
        link_(n, kInfiniteDelay),
        adv_(n, std::vector<double>(n, kInfiniteDelay)),
        last_seq_(n, 0),
        time_(n, 0.0),
        expired_(n, 0),
        pinned_(n, 0),
        pin_(n) {
    for (std::size_t v = 0; v < n; ++v) adv_[v][v] = 0.0;
  }

  void set_link_delay(LandmarkId v, double d) { link_[v] = d; }

  bool merge(const DistanceVector& dv, double now) {
    const LandmarkId o = dv.origin;
    if (o == self_ || dv.seq + 1 <= last_seq_[o]) return false;
    last_seq_[o] = dv.seq + 1;
    time_[o] = now;
    expired_[o] = 0;
    for (std::size_t d = 0; d < adv_.size(); ++d) {
      adv_[o][d] = d == o ? 0.0 : dv.delay[d];
    }
    return true;
  }

  std::size_t expire_stale(double cutoff) {
    std::size_t count = 0;
    for (std::size_t o = 0; o < adv_.size(); ++o) {
      if (o == self_ || last_seq_[o] == 0 || expired_[o] != 0 ||
          time_[o] >= cutoff) {
        continue;
      }
      adv_[o].assign(adv_.size(), kInfiniteDelay);
      expired_[o] = 1;
      ++count;
    }
    return count;
  }

  void pin(LandmarkId dst, LandmarkId next, double delay) {
    pinned_[dst] = 1;
    pin_[dst] = Route{next, delay, kNoLandmark, kInfiniteDelay};
  }
  void unpin(LandmarkId dst) { pinned_[dst] = 0; }

  Route route(LandmarkId dst) const {
    if (dst == self_) return Route{self_, 0.0, kNoLandmark, kInfiniteDelay};
    const auto precedes = [](double ca, std::size_t ia, double cb,
                             std::size_t ib) {
      return ca < cb || (ca == cb && ia < ib);
    };
    Route r;
    for (std::size_t v = 0; v < adv_.size(); ++v) {
      if (v == self_) continue;
      const double cost = link_[v] + adv_[v][dst];
      if (cost == kInfiniteDelay) continue;
      const auto id = static_cast<LandmarkId>(v);
      if (r.next == kNoLandmark || precedes(cost, v, r.delay, r.next)) {
        r.backup_next = r.next;
        r.backup_delay = r.delay;
        r.next = id;
        r.delay = cost;
      } else if (r.backup_next == kNoLandmark ||
                 precedes(cost, v, r.backup_delay, r.backup_next)) {
        r.backup_next = id;
        r.backup_delay = cost;
      }
    }
    if (pinned_[dst] == 0) return r;
    Route pr = pin_[dst];  // the pin replaces the best, which backs it up
    pr.backup_next = r.next;
    pr.backup_delay = r.delay;
    return pr;
  }

 private:
  LandmarkId self_;
  std::vector<double> link_;
  std::vector<std::vector<double>> adv_;
  std::vector<std::uint64_t> last_seq_;
  std::vector<double> time_;
  std::vector<std::uint8_t> expired_;
  std::vector<std::uint8_t> pinned_;
  std::vector<Route> pin_;
};

bool SameBits(const Route& a, const Route& b) {
  return a.next == b.next && a.backup_next == b.backup_next &&
         std::bit_cast<std::uint64_t>(a.delay) ==
             std::bit_cast<std::uint64_t>(b.delay) &&
         std::bit_cast<std::uint64_t>(a.backup_delay) ==
             std::bit_cast<std::uint64_t>(b.backup_delay);
}

// Saves `t`, loads the image into a fresh table (which must rebuild its
// derived neighbor list from the restored link delays) and swaps it in.
// Re-saving the loaded table must reproduce the image byte for byte.
void ReloadThroughCheckpoint(RoutingTable& t) {
  persist::Writer w;
  w.begin_section("table");
  t.save(w);
  w.end_section();
  w.finish();
  RoutingTable fresh(t.self(), t.num_landmarks());
  persist::Reader r(w.buffer());
  r.expect_section("table");
  fresh.load(r);
  r.end_section();
  r.finish();
  persist::Writer again;
  again.begin_section("table");
  fresh.save(again);
  again.end_section();
  again.finish();
  EXPECT_EQ(again.buffer(), w.buffer());
  t = std::move(fresh);
}

// Random op streams over small-integer delays (ties everywhere) with
// infinite cells sprinkled in.  `eager` is queried and compared after
// every op, so each merge patches a fully clean table; `lazy` sees the
// same ops but is queried only now and then, so merges also land on
// dirty and all-dirty columns.  Both are audited after every op, and
// now and then both are reloaded through a checkpoint image mid-stream.
// `sparse` sends link changes to infinity 3 times in 4, so only about a
// quarter of the origins are linked (as on the city tier) instead of
// most of them.
void RunReferenceStream(std::size_t n, std::uint64_t seed, bool sparse) {
  dtn::Rng rng(seed);
  const auto self = static_cast<LandmarkId>(rng.uniform_index(n));
  ReferenceTable ref(self, n);
  RoutingTable eager(self, n);
  RoutingTable lazy(self, n);
  std::vector<DistanceVector> vectors(n);
  for (std::size_t o = 0; o < n; ++o) {
    vectors[o] = DistanceVector{static_cast<LandmarkId>(o), 0,
                                std::vector<double>(n, kInfiniteDelay)};
  }
  const auto other = [&] {
    auto v = static_cast<LandmarkId>(rng.uniform_index(n - 1));
    return v >= self ? v + 1 : v;
  };
  const auto small_delay = [&](std::size_t range) {
    return rng.uniform_index(6) == 0
               ? kInfiniteDelay
               : static_cast<double>(rng.uniform_index(range));
  };
  double now = 0.0;
  const auto link_delay = [&] {
    if (sparse && rng.uniform_index(4) != 0) return kInfiniteDelay;
    return small_delay(5);
  };
  for (int step = 0; step < 600; ++step) {
    now += 1.0;
    const auto roll = rng.uniform_index(21);
    if (roll < 4) {  // link change, including removal to infinity
      const LandmarkId v = other();
      const double d = link_delay();
      ref.set_link_delay(v, d);
      eager.set_link_delay(v, d);
      lazy.set_link_delay(v, d);
    } else if (roll < 15) {  // merge: perturb a few cells, maybe stale
      const LandmarkId o = other();
      DistanceVector dv = vectors[o];
      const bool stale = dv.seq > 0 && rng.uniform_index(5) == 0;
      if (stale) {
        --dv.seq;
      } else {
        const std::size_t cells = 1 + rng.uniform_index(4);
        for (std::size_t k = 0; k < cells; ++k) {
          dv.delay[rng.uniform_index(n)] = small_delay(8);
        }
      }
      const bool accepted = ref.merge(dv, now);
      EXPECT_EQ(eager.merge(dv, now), accepted);
      EXPECT_EQ(lazy.merge(dv, now), accepted);
      if (accepted) {
        vectors[o] = dv;
        ++vectors[o].seq;
      }
    } else if (roll < 18) {  // pin / unpin
      const LandmarkId dst = other();
      if (rng.uniform_index(2) == 0) {
        const LandmarkId via = other();
        const auto d = static_cast<double>(rng.uniform_index(4));
        ref.pin(dst, via, d);
        eager.pin(dst, via, d);
        lazy.pin(dst, via, d);
      } else {
        ref.unpin(dst);
        eager.unpin(dst);
        lazy.unpin(dst);
      }
    } else if (roll < 20) {  // withdraw origins silent for a while
      const double cutoff = now - static_cast<double>(rng.uniform_index(40));
      const std::size_t expired = ref.expire_stale(cutoff);
      EXPECT_EQ(eager.expire_stale(cutoff), expired);
      EXPECT_EQ(lazy.expire_stale(cutoff), expired);
    } else {  // suspend and resume: eager clean, lazy often dirty
      ReloadThroughCheckpoint(eager);
      ReloadThroughCheckpoint(lazy);
    }
    for (const RoutingTable* t : {&eager, &lazy}) {
      sim::AuditReport report;
      t->audit(report);
      ASSERT_TRUE(report.ok()) << "step " << step << "\n" << report.to_string();
    }
    const bool check_lazy = rng.uniform_index(8) == 0;
    for (std::size_t d = 0; d < n; ++d) {
      const auto dst = static_cast<LandmarkId>(d);
      const Route want = ref.route(dst);
      ASSERT_TRUE(SameBits(eager.route(dst), want))
          << "n=" << n << " step=" << step << " dst=" << d;
      if (check_lazy) {
        ASSERT_TRUE(SameBits(lazy.route(dst), want))
            << "lazy n=" << n << " step=" << step << " dst=" << d;
      }
    }
  }
}

class RoutingTableReference
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {
 protected:
  void RunSeeds(bool sparse) {
    const auto [n, scalar] = GetParam();
    const bool prev = simd::scalar_forced();
    simd::force_scalar_for_test(scalar);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      RunReferenceStream(n, seed * 7919 + n, sparse);
    }
    simd::force_scalar_for_test(prev);
  }
};

TEST_P(RoutingTableReference, RandomOpStreamsMatchReferenceModel) {
  RunSeeds(/*sparse=*/false);
}

TEST_P(RoutingTableReference, SparseLinkStreamsMatchReferenceModel) {
  RunSeeds(/*sparse=*/true);
}

// Odd sizes exercise the SIMD tails of merge's changed-cell scan.
INSTANTIATE_TEST_SUITE_P(
    Sizes, RoutingTableReference,
    ::testing::Combine(::testing::Values(std::size_t{5}, std::size_t{12},
                                         std::size_t{33}),
                       ::testing::Bool()));

// Property: after synchronous flooding on a random connected graph, DV
// delays equal all-pairs shortest paths (Floyd-Warshall reference).
class DvConvergenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DvConvergenceTest, ConvergesToShortestPaths) {
  dtn::Rng rng(GetParam());
  const std::size_t n = 8;
  std::vector<std::vector<double>> w(n, std::vector<double>(n, kInfiniteDelay));
  // Ring for connectivity + random chords; symmetric weights.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    const double d = rng.uniform(1.0, 10.0);
    w[i][j] = w[j][i] = d;
  }
  for (int extra = 0; extra < 6; ++extra) {
    const auto i = rng.uniform_index(n);
    const auto j = rng.uniform_index(n);
    if (i == j) continue;
    const double d = rng.uniform(1.0, 10.0);
    w[i][j] = std::min(w[i][j], d);
    w[j][i] = std::min(w[j][i], d);
  }

  std::vector<RoutingTable> tables;
  tables.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tables.emplace_back(static_cast<LandmarkId>(i), n);
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && w[i][j] != kInfiniteDelay) {
        tables[i].set_link_delay(static_cast<LandmarkId>(j), w[i][j]);
      }
    }
  }
  // Synchronous rounds: everyone snapshots, everyone merges neighbors.
  for (std::size_t round = 0; round < n + 2; ++round) {
    std::vector<DistanceVector> snaps;
    snaps.reserve(n);
    for (auto& t : tables) snaps.push_back(t.snapshot());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && w[i][j] != kInfiniteDelay) tables[i].merge(snaps[j]);
      }
    }
  }

  // Floyd-Warshall reference.
  auto dist = w;
  for (std::size_t i = 0; i < n; ++i) dist[i][i] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(tables[i].coverage(), 1.0);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(tables[i].delay_to(static_cast<LandmarkId>(j)), dist[i][j],
                  1e-9)
          << "i=" << i << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, DvConvergenceTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

}  // namespace
}  // namespace dtn::core
