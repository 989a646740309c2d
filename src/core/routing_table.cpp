#include "core/routing_table.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "persist/flat_io.hpp"
#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"
#include "util/assert.hpp"
#include "util/simd.hpp"

namespace dtn::core {

RoutingTable::RoutingTable(LandmarkId self, std::size_t num_landmarks)
    : self_(self),
      link_delay_(num_landmarks, kInfiniteDelay),
      advertised_(num_landmarks, num_landmarks, kInfiniteDelay),
      advertised_T_(num_landmarks, num_landmarks, kInfiniteDelay),
      last_seq_(num_landmarks, 0),
      advertised_time_(num_landmarks, 0.0),
      expired_(num_landmarks, 0),
      pinned_(num_landmarks, 0),
      pin_route_(num_landmarks),
      routes_(num_landmarks),
      column_dirty_(num_landmarks, 0) {
  DTN_ASSERT(self < num_landmarks);
  // A neighbor always advertises delay 0 to itself even before we have
  // merged anything from it (direct links are usable immediately).
  for (std::size_t v = 0; v < num_landmarks; ++v) {
    advertised_.at(v, v) = 0.0;
    advertised_T_.at(v, v) = 0.0;
  }
}

void RoutingTable::rebuild_transposed() {
  const std::size_t n = link_delay_.size();
  for (std::size_t o = 0; o < n; ++o) {
    for (std::size_t d = 0; d < n; ++d) {
      advertised_T_.at(d, o) = advertised_.at(o, d);
    }
  }
}

void RoutingTable::mark_dirty(LandmarkId dst) {
  dirty_ = true;
  if (all_dirty_ || column_dirty_[dst] != 0) return;
  column_dirty_[dst] = 1;
  dirty_columns_.push_back(dst);
}

void RoutingTable::update_cell(LandmarkId origin, LandmarkId dst) {
  if (dst == self_) return;  // the self column is the constant {self, 0}
  if (all_dirty_ || column_dirty_[dst] != 0 || pinned_[dst] != 0) {
    mark_dirty(dst);
    return;
  }
  const double ld = link_delay_[origin];
  if (ld == kInfiniteDelay) return;  // not a neighbor: never a candidate
  // The same addition both column solvers perform, so the patched delay
  // carries the bits a re-solve would produce.
  const double c = ld + advertised_.at(origin, dst);
  const bool finite = c != kInfiniteDelay;
  // The route is the top two of (cost, index) in lexicographic order,
  // which is what the scalar loop's strict-< ascending scan yields.
  const auto precedes = [](double ca, LandmarkId ia, double cb,
                           LandmarkId ib) {
    return ca < cb || (ca == cb && ia < ib);
  };
  Route& r = routes_[dst];
  const bool was_best = origin == r.next;
  if (was_best || origin == r.backup_next) {
    // A hop of the cached pair that got worse may now trail an origin
    // outside the pair, which only a rescan can find; the best is still
    // decided when it keeps preceding the backup.
    const double old = was_best ? r.delay : r.backup_delay;
    if (!finite ||
        (c > old &&
         !(was_best && precedes(c, origin, r.backup_delay, r.backup_next)))) {
      mark_dirty(dst);
      return;
    }
    // (c, origin) still precedes every origin outside the pair: take it
    // out and re-insert it below.
    if (was_best) {
      r.next = r.backup_next;
      r.delay = r.backup_delay;
    }
    r.backup_next = kNoLandmark;
    r.backup_delay = kInfiniteDelay;
  } else if (!finite) {
    return;
  }
  if (precedes(c, origin, r.delay, r.next)) {
    r.backup_next = r.next;
    r.backup_delay = r.delay;
    r.next = origin;
    r.delay = c;
  } else if (precedes(c, origin, r.backup_delay, r.backup_next)) {
    r.backup_next = origin;
    r.backup_delay = c;
  }
}

void RoutingTable::mark_all_dirty() {
  dirty_ = true;
  all_dirty_ = true;
}

void RoutingTable::set_link_delay(LandmarkId neighbor, double delay) {
  DTN_ASSERT(neighbor < link_delay_.size());
  DTN_ASSERT(neighbor != self_);
  DTN_ASSERT(delay >= 0.0);
  if (link_delay_[neighbor] != delay) {
    link_delay_[neighbor] = delay;
    // A changed link cost touches every destination routed (or now
    // routable) through `neighbor`, which can be any column.
    mark_all_dirty();
  }
}

double RoutingTable::link_delay(LandmarkId neighbor) const {
  DTN_ASSERT(neighbor < link_delay_.size());
  return link_delay_[neighbor];
}

bool RoutingTable::merge(const DistanceVector& dv, double now) {
  DTN_ASSERT(dv.origin < link_delay_.size());
  DTN_ASSERT(dv.delay.size() == link_delay_.size());
  if (dv.origin == self_) return false;
  if (dv.seq + 1 <= last_seq_[dv.origin]) return false;  // stale
  last_seq_[dv.origin] = dv.seq + 1;
  advertised_time_[dv.origin] = now;
  expired_[dv.origin] = 0;  // a fresh vector revives a withdrawn origin
  const std::size_t n = dv.delay.size();
  const LandmarkId origin = dv.origin;
  double* row = advertised_.row_ptr(origin);
  const double* in = dv.delay.data();
  // Apply one incoming cell: advertised matrix, transposed mirror and
  // the cached route (patched in place or marked dirty) move together.
  const auto apply = [&](std::size_t d, double incoming) {
    if (row[d] != incoming) {
      row[d] = incoming;
      advertised_T_.at(d, origin) = incoming;
      update_cell(origin, static_cast<LandmarkId>(d));
    }
  };
#if defined(__GNUC__) && !defined(DTN_SIMD_SCALAR)
  if (simd::kEnabled && !simd::scalar_forced()) {
    // Vectorized changed-cell scan: compare a whole block at a time and
    // fall back to per-cell application only inside blocks that differ.
    // Cells are visited in ascending destination order either way, so
    // the dirty list grows in exactly the serial order.
    const auto sweep = [&](std::size_t lo, std::size_t hi) {
      std::size_t d = lo;
      for (; d + simd::kDoubleLanes <= hi; d += simd::kDoubleLanes) {
        const simd::VMask diff = simd::loadu(row + d) != simd::loadu(in + d);
        if (!simd::any(diff)) continue;
        for (std::size_t j = d; j < d + simd::kDoubleLanes; ++j) {
          apply(j, in[j]);
        }
      }
      for (; d < hi; ++d) apply(d, in[d]);
    };
    // A neighbor advertises delay 0 to itself regardless of payload, so
    // the origin cell splits the row into two plain compare segments.
    sweep(0, origin);
    apply(origin, 0.0);
    sweep(origin + 1, n);
    return true;
  }
#endif
  for (std::size_t d = 0; d < n; ++d) {
    apply(d, d == origin ? 0.0 : in[d]);
  }
  return true;
}

Route RoutingTable::compute_column_scalar(LandmarkId dst) const {
  if (dst == self_) {
    Route r;
    r.next = self_;
    r.delay = 0.0;
    return r;
  }
  const std::size_t n = link_delay_.size();
  Route r;
  for (std::size_t v = 0; v < n; ++v) {
    if (v == self_) continue;
    const double ld = link_delay_[v];
    if (ld == kInfiniteDelay) continue;
    const double adv = advertised_.at(v, dst);
    if (adv == kInfiniteDelay) continue;
    const double cost = ld + adv;
    if (cost < r.delay) {
      r.backup_next = r.next;
      r.backup_delay = r.delay;
      r.next = static_cast<LandmarkId>(v);
      r.delay = cost;
    } else if (cost < r.backup_delay) {
      r.backup_next = static_cast<LandmarkId>(v);
      r.backup_delay = cost;
    }
  }
  if (pinned_[dst] != 0) {
    // The pinned (injected) route replaces the best; the organically
    // computed best becomes the backup so load balancing still works.
    Route pr = pin_route_[dst];
    pr.backup_next = r.next;
    pr.backup_delay = r.delay;
    return pr;
  }
  return r;
}

Route RoutingTable::compute_column(LandmarkId dst) const {
  ++column_solves_;
#if defined(__GNUC__) && !defined(DTN_SIMD_SCALAR)
  if (!simd::kEnabled || simd::scalar_forced()) {
    return compute_column_scalar(dst);
  }
  if (dst == self_) {
    Route r;
    r.next = self_;
    r.delay = 0.0;
    return r;
  }
  // Fused min / second-min sweep over the contiguous cost row
  // cost[v] = link_delay[v] + advertised_T[dst][v].  Equivalent to the
  // scalar running best/backup scan: the best hop is the *first* index
  // attaining the row minimum, the backup the first index attaining the
  // minimum with the best excluded — exactly the strict-< tie-break
  // order of the serial loop (docs/simd-hot-path.md).  Excluded
  // neighbors need no masking: link_delay_[self_] is always infinite,
  // and any infinite link or advertisement makes cost[v] infinite,
  // which can never win.  Each lane tracks its two smallest values
  // (with multiplicity), so one pass yields both the minimum and the
  // minimum-excluding-one-instance; indices are recovered by short
  // equality scans that recompute cost with the identical ld + adv
  // arithmetic (no scratch stores).
  const std::size_t n = link_delay_.size();
  const double* ld = link_delay_.data();
  const double* adv = advertised_T_.row_ptr(dst);
  // Two independent accumulator pairs break the min/min latency chain;
  // merging two (smallest, second-smallest) pairs afterwards is the
  // same multiset-union merge the lane reduction performs.
  simd::VDouble vm1 = simd::broadcast(kInfiniteDelay);
  simd::VDouble vm2 = vm1;
  simd::VDouble wm1 = vm1;
  simd::VDouble wm2 = vm1;
  std::size_t v = 0;
  for (; v + 2 * simd::kDoubleLanes <= n; v += 2 * simd::kDoubleLanes) {
    const simd::VDouble c0 = simd::loadu(ld + v) + simd::loadu(adv + v);
    const simd::VDouble c1 = simd::loadu(ld + v + simd::kDoubleLanes) +
                             simd::loadu(adv + v + simd::kDoubleLanes);
    vm2 = simd::vmin(vm2, simd::vmax(vm1, c0));
    vm1 = simd::vmin(vm1, c0);
    wm2 = simd::vmin(wm2, simd::vmax(wm1, c1));
    wm1 = simd::vmin(wm1, c1);
  }
  for (; v + simd::kDoubleLanes <= n; v += simd::kDoubleLanes) {
    const simd::VDouble c = simd::loadu(ld + v) + simd::loadu(adv + v);
    vm2 = simd::vmin(vm2, simd::vmax(vm1, c));
    vm1 = simd::vmin(vm1, c);
  }
  vm2 = simd::vmin(simd::vmin(vm2, wm2), simd::vmax(vm1, wm1));
  vm1 = simd::vmin(vm1, wm1);
  // Merge the per-lane pairs, then the scalar tail: for two multisets
  // with smallest pairs (a1, a2) and (b1, b2), the merged pair is
  // (min(a1, b1), min(max(a1, b1), a2, b2)).
  double m1 = kInfiniteDelay;
  double m2 = kInfiniteDelay;
  for (std::size_t lane = 0; lane < simd::kDoubleLanes; ++lane) {
    const double b1 = vm1[lane];
    const double b2 = vm2[lane];
    const double hi = m1 > b1 ? m1 : b1;
    m1 = m1 < b1 ? m1 : b1;
    m2 = m2 < b2 ? m2 : b2;
    m2 = m2 < hi ? m2 : hi;
  }
  for (; v < n; ++v) {
    const double c = ld[v] + adv[v];
    const double hi = m1 > c ? m1 : c;
    m1 = m1 < c ? m1 : c;
    m2 = m2 < hi ? m2 : hi;
  }
  Route r;
  if (m1 != kInfiniteDelay) {
    std::size_t best = 0;
    while (ld[best] + adv[best] != m1) ++best;
    r.next = static_cast<LandmarkId>(best);
    r.delay = ld[best] + adv[best];  // the first-argmin's bits
    if (m2 != kInfiniteDelay) {
      std::size_t backup = best == 0 ? 1 : 0;
      while (backup == best || ld[backup] + adv[backup] != m2) ++backup;
      r.backup_next = static_cast<LandmarkId>(backup);
      r.backup_delay = ld[backup] + adv[backup];
    }
  }
  if (pinned_[dst] != 0) {
    Route pr = pin_route_[dst];
    pr.backup_next = r.next;
    pr.backup_delay = r.delay;
    return pr;
  }
  return r;
#else
  return compute_column_scalar(dst);
#endif
}

void RoutingTable::recompute_column(LandmarkId dst) const {
  routes_[dst] = compute_column(dst);
}

void RoutingTable::recompute() const {
  if (!dirty_) return;
  if (all_dirty_) {
    const std::size_t n = link_delay_.size();
    for (std::size_t d = 0; d < n; ++d) {
      recompute_column(static_cast<LandmarkId>(d));
    }
    all_dirty_ = false;
  } else {
    for (const LandmarkId d : dirty_columns_) {
      recompute_column(d);
    }
  }
  for (const LandmarkId d : dirty_columns_) column_dirty_[d] = 0;
  dirty_columns_.clear();
  dirty_ = false;
}

Route RoutingTable::route(LandmarkId dst) const {
  DTN_ASSERT(dst < link_delay_.size());
  recompute();
  return routes_[dst];
}

double RoutingTable::delay_to(LandmarkId dst) const { return route(dst).delay; }

DistanceVector RoutingTable::snapshot() {
  recompute();
  DistanceVector dv;
  dv.origin = self_;
  dv.seq = seq_++;
  dv.delay.resize(link_delay_.size());
  for (std::size_t d = 0; d < dv.delay.size(); ++d) {
    dv.delay[d] = routes_[d].delay;
  }
  dv.delay[self_] = 0.0;
  return dv;
}

double RoutingTable::coverage() const {
  recompute();
  const std::size_t n = link_delay_.size();
  if (n <= 1) return 1.0;
  std::size_t reachable = 0;
  for (std::size_t d = 0; d < n; ++d) {
    if (d == self_) continue;
    if (routes_[d].reachable() && routes_[d].delay != kInfiniteDelay) {
      ++reachable;
    }
  }
  return static_cast<double>(reachable) / static_cast<double>(n - 1);
}

std::vector<LandmarkId> RoutingTable::next_hops() const {
  recompute();
  std::vector<LandmarkId> out(link_delay_.size(), kNoLandmark);
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d] = routes_[d].next;
  }
  return out;
}

std::size_t RoutingTable::expire_stale(double cutoff) {
  const std::size_t n = link_delay_.size();
  std::size_t expired = 0;
  for (std::size_t o = 0; o < n; ++o) {
    if (o == self_) continue;
    if (last_seq_[o] == 0) continue;  // never advertised: bootstrap row stays
    if (expired_[o] != 0) continue;
    if (advertised_time_[o] >= cutoff) continue;
    for (std::size_t d = 0; d < n; ++d) {
      advertised_.at(o, d) = kInfiniteDelay;
      advertised_T_.at(d, o) = kInfiniteDelay;
    }
    expired_[o] = 1;
    ++expired;
  }
  // A withdrawn origin can have been the best hop toward any column.
  if (expired != 0) mark_all_dirty();
  return expired;
}

bool RoutingTable::origin_expired(LandmarkId origin) const {
  DTN_ASSERT(origin < link_delay_.size());
  return expired_[origin] != 0;
}

double RoutingTable::advertised_time(LandmarkId origin) const {
  DTN_ASSERT(origin < link_delay_.size());
  return advertised_time_[origin];
}

void RoutingTable::pin(LandmarkId dst, LandmarkId next, double fake_delay) {
  DTN_ASSERT(dst < link_delay_.size());
  DTN_ASSERT(next < link_delay_.size());
  DTN_ASSERT(dst != self_);
  pinned_[dst] = 1;
  Route r;
  r.next = next;
  r.delay = fake_delay;
  pin_route_[dst] = r;
  mark_dirty(dst);
}

void RoutingTable::unpin(LandmarkId dst) {
  DTN_ASSERT(dst < link_delay_.size());
  if (pinned_[dst] != 0) {
    pinned_[dst] = 0;
    mark_dirty(dst);
  }
}

bool RoutingTable::is_pinned(LandmarkId dst) const {
  DTN_ASSERT(dst < link_delay_.size());
  return pinned_[dst] != 0;
}

void RoutingTable::audit(sim::AuditReport& report) const {
  const std::size_t n = link_delay_.size();
  const auto prefix = [this](LandmarkId dst) {
    return "table " + std::to_string(self_) + ", destination " +
           std::to_string(dst) + ": ";
  };
  // Bookkeeping: the compact dirty list and the dense flag array must
  // describe the same set, and a clean table must have an empty set.
  std::size_t flagged = 0;
  for (std::size_t d = 0; d < n; ++d) {
    if (column_dirty_[d] != 0) ++flagged;
  }
  std::vector<std::uint8_t> listed(n, 0);
  for (const LandmarkId d : dirty_columns_) {
    if (d >= n) {
      report.fail("dirty list names an out-of-range column");
      continue;
    }
    if (listed[d] != 0) {
      report.fail(prefix(d) + "column listed dirty twice");
    }
    listed[d] = 1;
    if (column_dirty_[d] == 0) {
      report.fail(prefix(d) + "column in the dirty list but not flagged");
    }
  }
  if (flagged != dirty_columns_.size()) {
    report.fail("dirty flag count (" + std::to_string(flagged) +
                ") disagrees with the dirty list (" +
                std::to_string(dirty_columns_.size()) + " entries)");
  }
  if (!dirty_ && (all_dirty_ || !dirty_columns_.empty())) {
    report.fail("table claims clean while columns are marked dirty");
  }
  if (all_dirty_ && !dirty_) {
    report.fail("all_dirty_ set on a clean table");
  }
  // SoA mirror: the transposed advertised matrix must equal advertised_
  // cell-for-cell, bit-for-bit — a merge path that forgot the mirror
  // would silently feed the SIMD column sweep stale costs.
  if (advertised_T_.rows() != n || advertised_T_.cols() != n) {
    report.fail("transposed advertised mirror has the wrong shape");
    return;
  }
  for (std::size_t o = 0; o < n; ++o) {
    for (std::size_t d = 0; d < n; ++d) {
      if (std::bit_cast<std::uint64_t>(advertised_.at(o, d)) !=
          std::bit_cast<std::uint64_t>(advertised_T_.at(d, o))) {
        report.fail(prefix(static_cast<LandmarkId>(d)) +
                    "transposed advertised mirror diverges from "
                    "advertised_[" + std::to_string(o) + "][" +
                    std::to_string(d) + "] (" +
                    std::to_string(advertised_.at(o, d)) + " vs " +
                    std::to_string(advertised_T_.at(d, o)) + ")");
      }
    }
  }
  // Correctness: every column *not* marked stale must already equal the
  // from-scratch min-over-neighbors scan, bit for bit.  The reference
  // is always the *scalar* loop, so this doubles as a SIMD-vs-scalar
  // cross-check of whatever path produced the cached routes.
  if (all_dirty_) return;  // every column is legitimately stale
  for (std::size_t d = 0; d < n; ++d) {
    if (column_dirty_[d] != 0) continue;
    const auto dst = static_cast<LandmarkId>(d);
    const Route fresh = compute_column_scalar(dst);
    const Route& cached = routes_[d];
    if (fresh.next != cached.next ||
        std::bit_cast<std::uint64_t>(fresh.delay) !=
            std::bit_cast<std::uint64_t>(cached.delay) ||
        fresh.backup_next != cached.backup_next ||
        std::bit_cast<std::uint64_t>(fresh.backup_delay) !=
            std::bit_cast<std::uint64_t>(cached.backup_delay)) {
      report.fail(prefix(dst) +
                  "clean column disagrees with from-scratch recompute "
                  "(cached next " + std::to_string(cached.next) + ", delay " +
                  std::to_string(cached.delay) + "; fresh next " +
                  std::to_string(fresh.next) + ", delay " +
                  std::to_string(fresh.delay) + ")");
    }
  }
}

void RoutingTable::debug_corrupt_advertised_for_test(LandmarkId origin,
                                                     LandmarkId dst,
                                                     double delay) {
  DTN_ASSERT(origin < link_delay_.size());
  DTN_ASSERT(dst < link_delay_.size());
  advertised_.at(origin, dst) = delay;  // deliberately NOT marked dirty
  advertised_T_.at(dst, origin) = delay;
}

void RoutingTable::debug_corrupt_transposed_for_test(LandmarkId origin,
                                                     LandmarkId dst,
                                                     double delay) {
  DTN_ASSERT(origin < link_delay_.size());
  DTN_ASSERT(dst < link_delay_.size());
  advertised_T_.at(dst, origin) = delay;  // advertised_ left alone
}

namespace {

void write_route(persist::Writer& w, const Route& r) {
  w.u32(r.next);
  w.f64(r.delay);
  w.u32(r.backup_next);
  w.f64(r.backup_delay);
}

void read_route(persist::Reader& r, Route& out) {
  out.next = r.u32();
  out.delay = r.f64();
  out.backup_next = r.u32();
  out.backup_delay = r.f64();
}

}  // namespace

void RoutingTable::save(persist::Writer& w) const {
  const std::size_t n = link_delay_.size();
  w.u32(self_);
  w.u64(n);
  for (const double d : link_delay_) w.f64(d);
  persist::write_matrix(w, advertised_);
  for (const std::uint64_t s : last_seq_) w.u64(s);
  for (const double t : advertised_time_) w.f64(t);
  for (const std::uint8_t e : expired_) w.u8(e);
  for (const std::uint8_t p : pinned_) w.u8(p);
  for (const Route& r : pin_route_) write_route(w, r);
  w.u64(seq_);
  for (const Route& r : routes_) write_route(w, r);
  for (const std::uint8_t d : column_dirty_) w.u8(d);
  w.u64(dirty_columns_.size());
  for (const LandmarkId d : dirty_columns_) w.u32(d);
  w.boolean(all_dirty_);
  w.boolean(dirty_);
}

void RoutingTable::load(persist::Reader& r) {
  const std::size_t n = link_delay_.size();
  if (r.u32() != self_ || r.u64() != n) {
    throw persist::FormatError(
        "checkpoint routing table shape (self, num_landmarks) mismatch");
  }
  for (double& d : link_delay_) d = r.f64();
  persist::read_matrix(r, advertised_);
  if (advertised_.rows() != n || advertised_.cols() != n) {
    throw persist::FormatError(
        "checkpoint routing table advertised matrix shape mismatch");
  }
  for (std::uint64_t& s : last_seq_) s = r.u64();
  for (double& t : advertised_time_) t = r.f64();
  for (std::uint8_t& e : expired_) e = r.u8();
  for (std::uint8_t& p : pinned_) p = r.u8();
  for (Route& rt : pin_route_) read_route(r, rt);
  seq_ = r.u64();
  for (Route& rt : routes_) read_route(r, rt);
  for (std::uint8_t& d : column_dirty_) d = r.u8();
  dirty_columns_.resize(static_cast<std::size_t>(r.u64()));
  for (LandmarkId& d : dirty_columns_) {
    d = r.u32();
    if (d >= n) {
      throw persist::FormatError(
          "checkpoint routing table dirty column out of range");
    }
  }
  all_dirty_ = r.boolean();
  dirty_ = r.boolean();
  // The transposed mirror is derived state and deliberately absent from
  // the image (the byte layout predates it); rebuild it.
  rebuild_transposed();
}

}  // namespace dtn::core
