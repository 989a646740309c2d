// replaybench — end-to-end replay benchmark.
//
//   replaybench --workload NAME --seed N --seconds S --trace 0|1
//               [--work-dir DIR] [--commit SHA] [--allow-unclean]
//   replaybench --self-test [--workload NAME] [--seed N] [--work-dir DIR]
//
// One invocation replays one workload (workloads.hpp) through the public
// net::Network entry points.  Every replay's RunCounters digest is
// checked against a reference replay of the same seed taken through a
// different entry point; a mismatch or exception counts as a failed
// operation and its timing is dropped.  --trace 0 prints the end-to-end
// metrics, --trace 1 the per-layer ones (see README.md).  The last line
// of stdout is the result object.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dtn_flow_router.hpp"
#include "net/network.hpp"
#include "persist/checkpoint.hpp"
#include "sim/invariant_auditor.hpp"
#include "sim/shard_coordinator.hpp"
#include "timed_router.hpp"
#include "trace/shard_cursor.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

extern char** environ;

namespace replaybench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using dtn::net::RunCounters;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double max_over_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  double mx = 0.0;
  for (const double x : v) {
    sum += x;
    mx = std::max(mx, x);
  }
  return ratio(mx, sum / static_cast<double>(v.size()));
}

/// Peak resident memory of one replay.  reset() hands freed heap back
/// to the kernel and restarts the kernel's high-water mark, so the
/// replay's peak is measured on its own rather than on top of the heap
/// earlier work left behind.  Without a writable clear_refs the
/// process-lifetime peak is reported instead.
class MemoryProbe {
 public:
  void reset() {
    malloc_trim(0);
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    per_replay_ = f != nullptr && std::fputs("5", f) >= 0;
    if (f != nullptr && std::fclose(f) != 0) per_replay_ = false;
  }
  [[nodiscard]] double peak_mb() const {
    if (per_replay_) {
      std::ifstream status("/proc/self/status");
      std::string line;
      while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
          return std::stod(line.substr(6)) / 1024.0;  // kB
        }
      }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB
  }

 private:
  bool per_replay_ = false;
};

/// FNV-1a over the counters the correctness gate compares: generated,
/// delivered, forwards, control entries, delay sum and the per-packet
/// delivery-delay vector (all bit-exact).
std::uint64_t digest(const RunCounters& c) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  mix(c.generated);
  mix(c.delivered);
  mix(c.packet_forwards);
  mix(std::bit_cast<std::uint64_t>(c.control_entries));
  mix(std::bit_cast<std::uint64_t>(c.total_delay));
  mix(c.delivery_delays.size());
  for (const double d : c.delivery_delays) mix(std::bit_cast<std::uint64_t>(d));
  return h;
}

// -- one replay --------------------------------------------------------

struct Setup {
  dtn::trace::Trace trace;
  dtn::net::WorkloadConfig config;
  double generate_s = 0.0;
};

Setup make_setup(const Workload& w, std::uint64_t seed) {
  Setup s;
  const auto t0 = Clock::now();
  s.trace = w.make_trace();
  s.generate_s = seconds_since(t0);
  s.config = w.make_config(seed);
  return s;
}

struct Variant {
  Engine engine = Engine::kSerial;
  bool timed = false;        ///< wrap the router in TimedRouter
  bool null_router = false;  ///< replay with NullRouter
  bool unbatched = false;    ///< force per-event contact dispatch
  std::uint64_t suspend_at = 0;  ///< kServe: stop_after_events of the first half
};

struct Replay {
  RunCounters counters;
  std::uint64_t events = 0;
  double replay_s = 0.0;     ///< the entry-point calls (both halves for kServe)
  HookTotals hooks;
  std::vector<double> shard_hook_s;
  dtn::core::DtnFlowDiagnostics diag;
  // kServe only.
  double resume_s = 0.0;
  std::size_t snapshots = 0;
  double snapshot_mb = 0.0;
};

/// The router a replay runs, optionally behind the timing decorator.
struct RouterStack {
  std::unique_ptr<dtn::net::Router> inner;
  std::unique_ptr<TimedRouter> timed;

  RouterStack(const Workload& w, const Variant& v)
      : inner(v.null_router ? std::make_unique<NullRouter>()
                            : w.make_router()) {
    if (v.timed) timed = std::make_unique<TimedRouter>(*inner);
  }
  dtn::net::Router& top() { return timed ? *timed : *inner; }

  void collect(Replay& r) const {
    if (timed) {
      const HookTotals t = timed->totals();
      for (std::size_t h = 0; h < kNumHooks; ++h) {
        r.hooks.ns[h] += t.ns[h];
        r.hooks.calls[h] += t.calls[h];
      }
      r.shard_hook_s.clear();
      for (const auto ns : timed->per_shard_ns()) {
        r.shard_hook_s.push_back(static_cast<double>(ns) * 1e-9);
      }
    }
    if (const auto* flow =
            dynamic_cast<const dtn::core::DtnFlowRouter*>(inner.get())) {
      r.diag = flow->diagnostics();
    }
  }
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, fs::path work_dir)
      : w_(w), seed_(seed), work_dir_(std::move(work_dir)) {
    if (w_.engine == Engine::kSharded) pool_.emplace(w_.shards);
  }
  ~Bench() {
    std::error_code ec;
    fs::remove_all(ckpt_dir(), ec);
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  [[nodiscard]] const Workload& workload() const { return w_; }
  [[nodiscard]] Setup setup() const { return make_setup(w_, seed_); }

  /// The replay every timed replay must match: the same trace and
  /// workload through another entry point.  Serial workloads compare
  /// batched against per-event dispatch; the sharded one against
  /// serial run(); the serve one against one uninterrupted run().
  [[nodiscard]] Variant reference_variant() const {
    Variant v;
    v.engine = Engine::kSerial;
    v.unbatched = w_.engine == Engine::kSerial;
    return v;
  }
  [[nodiscard]] Variant workload_variant(std::uint64_t total_events) const {
    Variant v;
    v.engine = w_.engine;
    v.suspend_at = total_events / 2;
    return v;
  }

  Replay replay(const Setup& s, const Variant& v) {
    dtn::net::WorkloadConfig cfg = s.config;
    if (v.unbatched) cfg.batch_contacts = false;
    if (v.engine == Engine::kServe) return replay_serve(s.trace, cfg, v);

    Replay r;
    RouterStack rs(w_, v);
    dtn::net::Network net(s.trace, rs.top(), cfg);
    const auto t0 = Clock::now();
    if (v.engine == Engine::kSharded) {
      net.run_sharded(w_.shards, &*pool_);
    } else {
      net.run();
    }
    r.replay_s = seconds_since(t0);
    r.counters = net.counters();
    r.events = net.events_executed();
    rs.collect(r);
    return r;
  }

  /// Host seconds to construct the workload's router and Network.
  double construct_s(const Setup& s) {
    const auto t0 = Clock::now();
    RouterStack rs(w_, Variant{});
    const dtn::net::Network net(s.trace, rs.top(), s.config);
    return seconds_since(t0);
  }

  [[nodiscard]] fs::path ckpt_dir() const { return work_dir_ / "ckpt"; }

 private:
  // Suspend at v.suspend_at, destroy the Network, resume in a fresh one.
  Replay replay_serve(const dtn::trace::Trace& trace,
                      const dtn::net::WorkloadConfig& cfg, const Variant& v) {
    fs::remove_all(ckpt_dir());
    fs::create_directories(ckpt_dir());
    dtn::persist::CheckpointConfig cc;
    cc.dir = ckpt_dir().string();
    cc.every_events = w_.snapshot_every_events;
    cc.keep = 100000;  // keep every snapshot so the traced pass can count them
    cc.stop_after_events = v.suspend_at;

    Replay r;
    {
      RouterStack rs(w_, v);
      dtn::net::Network net(trace, rs.top(), cfg);
      dtn::persist::CheckpointManager mgr(cc);
      const auto t0 = Clock::now();
      if (net.run(mgr)) throw std::runtime_error("serve: did not suspend");
      r.replay_s = seconds_since(t0);
      rs.collect(r);
    }
    cc.stop_after_events = 0;
    const auto t0 = Clock::now();
    RouterStack rs(w_, v);
    dtn::net::Network net(trace, rs.top(), cfg);
    dtn::persist::CheckpointManager mgr(cc);
    if (!net.run(mgr)) throw std::runtime_error("serve: resume suspended");
    r.resume_s = seconds_since(t0);
    r.replay_s += r.resume_s;
    r.counters = net.counters();
    r.events = net.events_executed();
    rs.collect(r);

    const auto files = mgr.list();
    r.snapshots = files.size();
    double bytes = 0.0;
    for (const auto& f : files) bytes += static_cast<double>(fs::file_size(f));
    r.snapshot_mb = ratio(bytes, static_cast<double>(files.size())) / 1e6;
    return r;
  }

  const Workload& w_;
  std::uint64_t seed_;
  fs::path work_dir_;
  std::optional<dtn::ThreadPool> pool_;
};

// -- checks ------------------------------------------------------------

/// Invariants of any finished replay, independent of the reference.
bool sane(const Replay& r) {
  const RunCounters& c = r.counters;
  return r.events > 0 && c.generated > 0 && c.delivered > 0 &&
         c.delivered <= c.generated &&
         c.delivery_delays.size() == c.delivered;
}

struct Gate {
  std::uint64_t want = 0;
  std::uint64_t want_events = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Runs one replay through the gate; nullopt when it failed.
  template <class Fn>
  std::optional<Replay> check(Fn&& fn) {
    ++attempted;
    try {
      Replay r = fn();
      if (sane(r) && digest(r.counters) == want && r.events == want_events) {
        return r;
      }
      std::fprintf(stderr, "replaybench: digest mismatch (%016llx, want %016llx)\n",
                   static_cast<unsigned long long>(digest(r.counters)),
                   static_cast<unsigned long long>(want));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replaybench: replay failed: %s\n", e.what());
    }
    ++failed;
    return std::nullopt;
  }
};

// -- output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

void print_result(bool correct, const Gate& gate,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(gate.attempted);
  out += ", \"failed\": " + std::to_string(gate.failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

// -- host and environment guard -----------------------------------------

/// DTN_SIMD_* / DTN_AUDIT* variables that are set in the environment.
std::vector<std::string> dtn_env() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DTN_SIMD", 8) == 0 ||
        std::strncmp(*e, "DTN_AUDIT", 9) == 0) {
      out.emplace_back(*e);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Reasons this process must not be timed (empty = clean).
std::vector<std::string> unclean_reasons() {
  std::vector<std::string> out;
  if (std::string(REPLAYBENCH_BUILD_TYPE) != "Release") {
    out.emplace_back("build type is " + std::string(REPLAYBENCH_BUILD_TYPE) +
                     ", not Release");
  }
#ifndef NDEBUG
  out.emplace_back("assertions compiled in (NDEBUG unset)");
#endif
#ifdef DTN_SIMD_SCALAR
  out.emplace_back("SIMD compiled out (DTN_SIMD_SCALAR)");
#endif
  if (dtn::sim::InvariantAuditor::config_from_env().enabled) {
    out.emplace_back("invariant auditor enabled from the environment");
  }
  if (dtn::simd::scalar_forced()) {
    out.emplace_back("SIMD forced scalar from the environment");
  }
  return out;
}

void print_host(const std::string& commit, bool unclean) {
  std::string env;
  for (const auto& e : dtn_env()) {
    env += (env.empty() ? "\"" : ", \"") + json_escape(e) + "\"";
  }
  std::printf(
      "{\"host\": {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"commit\": \"%s\", \"simd\": %s, \"dtn_env\": [%s], "
      "\"unclean\": %s}}\n",
      std::thread::hardware_concurrency(), REPLAYBENCH_COMPILER,
      REPLAYBENCH_BUILD_TYPE, json_escape(commit).c_str(),
      dtn::simd::kEnabled && !dtn::simd::scalar_forced() ? "true" : "false",
      env.c_str(), unclean ? "true" : "false");
}

// -- the passes ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool self_test = false;
  bool allow_unclean = false;
  std::string work_dir = ".bench_build/replaybench-work";
  std::string commit = "unknown";
};

/// Always at least this many timed replays, however long they take.
constexpr std::size_t kMinReps = 3;
/// Set-ups timed per run.
constexpr std::size_t kSetups = 10;
/// Bare/decorated replay pairs in the traced pass.
constexpr std::size_t kTracedPairs = 3;

std::vector<Metric> end_to_end(const Replay& ref,
                               const std::vector<double>& events_per_s,
                               const std::vector<double>& setup_s,
                               double rss_mb) {
  const RunCounters& c = ref.counters;
  return {
      {"events_per_s", median(events_per_s), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"success_rate", ratio(static_cast<double>(c.delivered),
                             static_cast<double>(c.generated)), "ratio"},
      {"avg_delay_d", ratio(c.total_delay, static_cast<double>(c.delivered)) /
                          dtn::trace::kDay, "sim_day"},
  };
}

std::vector<Metric> per_layer(Bench& bench, const Setup& s, const Replay& ref,
                              Gate& gate, const std::vector<double>& replay_s,
                              const std::vector<double>& generate_s) {
  const Workload& w = bench.workload();
  std::vector<Metric> m;

  // Decorated replays of the workload itself (router hooks, engine self
  // time, per-shard busy time), each right after a bare one, so that
  // host drift between the two cancels out of the tracing overhead.
  // The decorated replay with the median wall time supplies the rest.
  const Variant bare = bench.workload_variant(ref.events);
  Variant traced = bare;
  traced.timed = true;
  std::vector<double> bare_s, traced_s;
  std::vector<Replay> decorated;
  for (std::size_t i = 0; i < kTracedPairs; ++i) {
    const auto b = gate.check([&] { return bench.replay(s, bare); });
    auto d = gate.check([&] { return bench.replay(s, traced); });
    if (!b || !d) continue;
    bare_s.push_back(b->replay_s);
    traced_s.push_back(d->replay_s);
    decorated.push_back(std::move(*d));
  }
  std::sort(decorated.begin(), decorated.end(),
            [](const Replay& x, const Replay& y) {
              return x.replay_s < y.replay_s;
            });
  const bool dec_ok = !decorated.empty();
  const Replay d = dec_ok ? decorated[decorated.size() / 2] : Replay{};
  const double untraced = median(replay_s);

  // Engine self time needs a serial replay: summed hook time of
  // concurrent shards exceeds the sharded wall time.
  Replay self_src = d;
  if (w.engine == Engine::kSharded) {
    Variant serial_traced;
    serial_traced.timed = true;
    self_src = gate.check([&] { return bench.replay(s, serial_traced); })
                   .value_or(Replay{});
  }

  // Null-router replay of the same trace and workload.
  Variant null_v;
  null_v.engine = w.engine == Engine::kServe ? Engine::kSerial : w.engine;
  null_v.null_router = true;
  const Replay null_r = bench.replay(s, null_v);

  m.push_back({"trace.generate_s", median(generate_s), "s"});
  m.push_back({"sim.null_replay_s", null_r.replay_s, "s"});
  m.push_back({"sim.events", static_cast<double>(null_r.events), "count"});
  m.push_back({"engine.self_s",
               self_src.replay_s -
                   static_cast<double>(self_src.hooks.total_ns()) * 1e-9,
               "s"});
  for (std::size_t h = 0; h < kNumHooks; ++h) {
    const std::string base = std::string("router.") + kHookNames[h];
    const double ns = static_cast<double>(d.hooks.ns[h]);
    const double calls = static_cast<double>(d.hooks.calls[h]);
    m.push_back({base + "_s", ns * 1e-9, "s"});
    m.push_back({base + "_calls", calls, "count"});
    m.push_back({base + "_ns_per_call", ratio(ns, calls), "ns"});
  }

  const RunCounters& c = ref.counters;
  m.push_back({"core.control_entries", c.control_entries, "count"});
  m.push_back({"core.transits_observed",
               static_cast<double>(ref.diag.transits_observed), "count"});
  m.push_back({"core.prediction_accuracy",
               ratio(static_cast<double>(ref.diag.predictions_correct),
                     static_cast<double>(ref.diag.predictions_scored)),
               "ratio"});
  m.push_back({"net.packet_forwards", static_cast<double>(c.packet_forwards),
               "count"});
  m.push_back({"net.forwards_per_delivery",
               ratio(static_cast<double>(c.packet_forwards),
                     static_cast<double>(c.delivered)),
               "ratio"});
  m.push_back({"net.replications", static_cast<double>(c.replications),
               "count"});
  m.push_back({"net.refused_buffer", static_cast<double>(c.refused_buffer),
               "count"});
  m.push_back({"net.evicted_policy", static_cast<double>(c.evicted_policy),
               "count"});
  m.push_back({"net.admission_shed", static_cast<double>(c.admission_shed),
               "count"});
  m.push_back({"net.duplicates_suppressed",
               static_cast<double>(c.duplicates_suppressed), "count"});

  // Persistence: bus-serve only, zero elsewhere.
  double snapshots = 0.0, snapshot_mb = 0.0, mb_per_s = 0.0, resume_s = 0.0,
         overhead_s = 0.0;
  if (w.engine == Engine::kServe && dec_ok) {
    snapshots = static_cast<double>(d.snapshots);
    snapshot_mb = d.snapshot_mb;
    resume_s = d.resume_s;
    // Plain run() of the same configuration, bare router.
    const auto plain =
        gate.check([&] { return bench.replay(s, bench.reference_variant()); });
    overhead_s = plain ? untraced - plain->replay_s : 0.0;
    // Snapshot I/O throughput through CheckpointManager::write, on the
    // newest image the traced replay left behind.
    dtn::persist::CheckpointConfig cc;
    cc.dir = bench.ckpt_dir().string();
    const auto bytes = dtn::persist::CheckpointManager(cc).read_latest();
    cc.dir = (bench.ckpt_dir() / "io").string();
    cc.keep = 1;
    dtn::persist::CheckpointManager io(cc);
    std::vector<double> write_s;
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      io.write(i, bytes);
      write_s.push_back(seconds_since(t0));
    }
    mb_per_s = ratio(static_cast<double>(bytes.size()) / 1e6, median(write_s));
  }
  m.push_back({"persist.snapshots", snapshots, "count"});
  m.push_back({"persist.snapshot_mb", snapshot_mb, "MB"});
  m.push_back({"persist.mb_per_s", mb_per_s, "MB/s"});
  m.push_back({"persist.resume_s", resume_s, "s"});
  m.push_back({"persist.overhead_s", overhead_s, "s"});

  // Shard planning through the public planning functions: city-sharded
  // only, zero elsewhere.
  double migrations = 0.0, event_imbalance = 0.0, busy_imbalance = 0.0,
         speedup = 0.0;
  if (w.engine == Engine::kSharded) {
    const auto weights = dtn::trace::landmark_visit_weights(s.trace);
    const auto shard_of = dtn::sim::assign_shards(weights, w.shards);
    const auto split =
        dtn::trace::split_trace_events(s.trace, shard_of, w.shards);
    migrations = static_cast<double>(split.migrations.size());
    std::vector<double> per_shard;
    for (const auto& events : split.events) {
      per_shard.push_back(static_cast<double>(events.size()));
    }
    event_imbalance = max_over_mean(per_shard);
    busy_imbalance = max_over_mean(d.shard_hook_s);
    const auto serial =
        gate.check([&] { return bench.replay(s, bench.reference_variant()); });
    speedup = serial ? ratio(serial->replay_s, untraced) : 0.0;
  }
  m.push_back({"shard.migrations", migrations, "count"});
  m.push_back({"shard.event_imbalance", event_imbalance, "ratio"});
  m.push_back({"shard.busy_imbalance", busy_imbalance, "ratio"});
  m.push_back({"shard.speedup", speedup, "ratio"});

  m.push_back({"trace.overhead_frac",
               ratio(median(traced_s), median(bare_s)) - 1.0,
               "ratio"});
  return m;
}

int run_pass(const Args& a, const Workload& w) {
  Bench bench(w, a.seed, a.work_dir);

  // Reference replay (untimed; also warms the allocator and caches).
  Gate gate;
  Replay ref;
  try {
    ref = bench.replay(bench.setup(), bench.reference_variant());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replaybench: reference replay failed: %s\n",
                 e.what());
    gate.attempted = gate.failed = 1;
    print_result(false, gate, {});
    return 1;
  }
  gate.want = digest(ref.counters);
  gate.want_events = ref.events;
  const Variant v = bench.workload_variant(ref.events);

  // Set-up cost, apart from the replays: back-to-back trace generations
  // plus router and Network constructions on the heap the reference
  // replay warmed.
  std::vector<double> setup_s, generate_s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const Setup s = bench.setup();
    generate_s.push_back(s.generate_s);
    setup_s.push_back(s.generate_s + bench.construct_s(s));
  }

  const Setup s = bench.setup();
  MemoryProbe memory;
  double rss_mb = 0.0;
  std::vector<double> events_per_s, replay_s;
  const auto start = Clock::now();
  for (std::size_t n = 0; n < kMinReps || seconds_since(start) < a.seconds;
       ++n) {
    // The first replay also gives the peak memory, measured on its own:
    // freed heap goes back to the kernel first and the kernel's
    // high-water mark restarts.
    if (n == 0) memory.reset();
    const auto r = gate.check([&] { return bench.replay(s, v); });
    if (n == 0) rss_mb = memory.peak_mb();
    if (!r) continue;
    events_per_s.push_back(static_cast<double>(r->events) / r->replay_s);
    replay_s.push_back(r->replay_s);
  }
  std::printf("# %.*s seed %llu: digest %016llx, %llu events, %zu replays\n",
              static_cast<int>(w.name.size()), w.name.data(),
              static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(gate.want),
              static_cast<unsigned long long>(ref.events), gate.attempted);

  const bool ref_ok = sane(ref);
  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = per_layer(bench, s, ref, gate, replay_s, generate_s);
  } else {
    metrics = end_to_end(ref, events_per_s, setup_s, rss_mb);
  }
  print_result(ref_ok && gate.failed == 0, gate, metrics);
  return 0;
}

/// Decorated and bare replays of every workload must digest identically.
int run_self_test(const Args& a) {
  bool all_ok = true;
  for (const Workload& w : all_workloads()) {
    if (!a.workload.empty() && w.name != a.workload) continue;
    Bench bench(w, a.seed, a.work_dir);
    const Setup s = bench.setup();
    const Replay ref = bench.replay(s, bench.reference_variant());
    const Variant bare = bench.workload_variant(ref.events);
    Variant timed = bare;
    timed.timed = true;
    const Replay rb = bench.replay(s, bare);
    const Replay rt = bench.replay(s, timed);
    const bool ok = sane(rb) && rb.counters == rt.counters &&
                    rb.events == rt.events && rb.diag == rt.diag &&
                    digest(rb.counters) == digest(ref.counters);
    all_ok = all_ok && ok;
    std::printf("self-test %-13.*s bare %016llx decorated %016llx reference "
                "%016llx events %llu/%llu: %s\n",
                static_cast<int>(w.name.size()), w.name.data(),
                static_cast<unsigned long long>(digest(rb.counters)),
                static_cast<unsigned long long>(digest(rt.counters)),
                static_cast<unsigned long long>(digest(ref.counters)),
                static_cast<unsigned long long>(rb.events),
                static_cast<unsigned long long>(rt.events),
                ok ? "identical" : "MISMATCH");
  }
  return all_ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: replaybench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--commit SHA] "
               "[--allow-unclean]\n"
               "       replaybench --self-test [--workload NAME] [--seed N]\n"
               "workloads:");
  for (const Workload& w : all_workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace replaybench

int main(int argc, char** argv) {
  using namespace replaybench;
  // Pin glibc's mmap threshold at its default.  Left dynamic, it rises
  // after large frees, and the peak memory of a replay then depends on
  // the history of earlier frees: bus-serve's peak flipped between 172
  // and 189 MB from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " expects a value");
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = value() != "0";
      } else if (k == "--work-dir") {
        a.work_dir = value();
      } else if (k == "--commit") {
        a.commit = value();
      } else if (k == "--self-test") {
        a.self_test = true;
      } else if (k == "--allow-unclean") {
        a.allow_unclean = true;
      } else {
        std::fprintf(stderr, "replaybench: unknown option %s\n", k.c_str());
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replaybench: %s\n", e.what());
      return usage();
    }
  }

  const auto reasons = unclean_reasons();
  print_host(a.commit, !reasons.empty());
  if (a.self_test) return run_self_test(a);

  const Workload* w = find_workload(a.workload);
  if (w == nullptr) return usage();
  if (!reasons.empty() && !a.allow_unclean) {
    for (const auto& r : reasons) {
      std::fprintf(stderr, "replaybench: refusing to time: %s\n", r.c_str());
    }
    std::fprintf(stderr, "replaybench: pass --allow-unclean to time anyway\n");
    return 3;
  }
  return run_pass(a, *w);
}
