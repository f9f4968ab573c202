// hotpath — the canonical probes/sec microbench over the Table 7 workload,
// and the perf-regression baseline every PR defends.
//
// The workload is exactly bench_table7_campaigns' probing phase: every
// (seed set × z48/z64 × vantage) yarrp6 campaign (pps 1000, 16 TTLs, fill
// mode) run as shards of a ParallelCampaignRunner, each feeding a
// shard-private TraceCollector. Three measurements:
//
//   fast    — the current engine: route cache, pooled packet buffers,
//             span inject, collectors only (1 worker thread);
//   threads — the fast configuration at 1/2/4/8 worker threads, each point
//             carrying its scaling_efficiency (speedup / threads) plus the
//             parallel backend's cost telemetry (route-snapshot warmup,
//             replica builds, worker busy spread);
//   merge   — the post-join k-way merge measured end-to-end: the full
//             workload with the global reply stream collected, at 1 and 8
//             threads, with an order-sensitive checksum over the merged
//             stream. The two checksums must match bit-for-bit (the
//             canonical-order contract), and the bench exits nonzero if
//             they don't.
//
// Scaling gate: the flat "scaling" JSON section records the 8-thread
// throughput and efficiency for tools/check_bench_regression.py, and the
// bench exits nonzero if 8 threads run *slower* than 1 — but only when the
// machine actually has ≥2 hardware threads ("machine".hardware_threads in
// the JSON; on a 1-CPU box the sweep measures scheduling overhead only, so
// the gate degrades to a warning). Compare thread-sweep numbers across
// runs only on identical hardware.
//
// Two scheduler guards ride along: "giant_shard" (one yarrp6 walk over
// everything, unsplit vs split_factor 8) and "doubletree_split" (one
// Doubletree campaign over everything as an epoch-snapshotted split
// family — the historically unsplittable source). Both sections carry a
// thread-invariance gate and the bench exits nonzero if any split run
// diverges across thread counts.
//
// The "churn" section re-runs the full workload with a generated
// DynamicsSchedule live (simnet/dynamics.hpp): mid-campaign link failures,
// ECMP re-convergences, rate-limit and loss-model swaps. Two hard gates:
// the 1-vs-8-thread merged checksums must match with churn active, and
// the schedule must not be inert (nonzero events applied and route-cache
// invalidations) — both exit nonzero on failure.
//
// It also *verifies* the zero-allocation claim: a global operator
// new/delete hook counts heap allocations across a steady-state window
// (second pass over an already-warm Network), and the bench exits nonzero
// if even one probe allocates. CI runs this in Release and fails on a
// crash or malformed BENCH_hotpath.json — never on absolute numbers,
// which are machine-dependent.
//
// Usage: bench_hotpath [scale] [out.json]   (defaults: 0.6 BENCH_hotpath.json)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>

#include "bench/common.hpp"
#include "campaign/parallel.hpp"
#include "campaign/runner.hpp"
#include "prober/doubletree.hpp"
#include "prober/yarrp6.hpp"
#include "simnet/dynamics.hpp"
#include "topology/collector.hpp"

// ---- Allocation-counting hook ----------------------------------------------
// Replaces the global allocator for this binary only. Relaxed atomics: the
// threads sweep allocates from worker threads, and we only read the
// counters between phases.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

// GCC pairs the *replaced* operator new with the library free() it can
// see through it and warns about the mismatch; pairing malloc-backed new
// with free-backed delete is exactly the point of the hook.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned variants: alignas(64) route-cache slots and the 2 MB
// huge-page tables (netbase::HugePageAllocator) allocate through these, so
// they must count too or regressions in those paths would be invisible.
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t padded = (n + a - 1) & ~(a - 1);
  if (void* p = std::aligned_alloc(a, padded)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace beholder6;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One Table 7 campaign shard: a yarrp6 walk of one synthesized set from
/// one vantage, feeding a private collector — bench_table7's configuration.
struct Job {
  prober::Yarrp6Config cfg;
  std::unique_ptr<prober::Yarrp6Source> source;
  topology::TraceCollector collector;
};

std::vector<Job> make_jobs(const bench::World& world,
                           const std::vector<bench::NamedSet>& sets) {
  std::vector<Job> jobs;
  for (const auto& ns : sets) {
    for (const auto& vantage : world.topo.vantages()) {
      Job job;
      job.cfg = bench::table7_campaign_cfg(vantage.src);
      job.source = std::make_unique<prober::Yarrp6Source>(job.cfg, ns.set.addrs);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

struct Measured {
  std::uint64_t probes = 0;
  double seconds = 0.0;
  simnet::NetworkStats net_stats;
  // Parallel-backend cost telemetry (see campaign/parallel.hpp): never
  // compared, only reported.
  double warmup_seconds = 0.0;
  std::uint64_t warmed_routes = 0;
  campaign::MergePerf merge;
  std::vector<campaign::WorkerPerf> workers;
  // Merged-stream fingerprint (collect_replies runs only): reply count and
  // an order-sensitive FNV-1a over every merge key + reply field, so two
  // runs match iff their merged streams are bit-identical in order.
  std::uint64_t replies = 0;
  std::uint64_t reply_checksum = 0;

  [[nodiscard]] double pps() const {
    return seconds > 0 ? static_cast<double>(probes) / seconds : 0.0;
  }
  [[nodiscard]] double busy_max() const {
    double b = 0.0;
    for (const auto& w : workers) b = std::max(b, w.busy_seconds);
    return b;
  }
};

std::uint64_t checksum_replies(const std::vector<campaign::ShardReply>& rs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& r : rs) {
    mix(r.virtual_us);
    mix((std::uint64_t{r.shard} << 32) | r.subshard);
    mix(r.reply.responder.hi());
    mix(r.reply.responder.lo());
    mix((static_cast<std::uint64_t>(r.reply.type) << 8) | r.reply.code);
    mix(r.reply.rtt_us);
    mix(r.reply.probe.target.hi());
    mix(r.reply.probe.target.lo());
    mix(r.reply.probe.ttl);
  }
  return h;
}

void fill_telemetry(Measured& m, const campaign::ParallelResult& result) {
  m.probes = result.net_stats.probes;
  m.net_stats = result.net_stats;
  m.warmup_seconds = result.warmup_seconds;
  m.warmed_routes = result.warmed_routes;
  m.merge = result.merge_perf;
  m.workers = result.worker_perf;
  m.replies = result.replies.size();
  if (!result.replies.empty()) m.reply_checksum = checksum_replies(result.replies);
}

/// Run the Table 7 probing phase and time it.
Measured run_pipeline(const bench::World& world,
                      const std::vector<bench::NamedSet>& sets,
                      const simnet::NetworkParams& params, unsigned threads,
                      bool collect_replies) {
  auto jobs = make_jobs(world, sets);
  std::vector<campaign::Shard> shards;
  shards.reserve(jobs.size());
  for (auto& j : jobs)
    shards.push_back({j.source.get(), j.cfg.endpoint(), j.cfg.pacing(),
                      [&j](const wire::DecodedReply& r) { j.collector.on_reply(r); }});
  const campaign::ParallelCampaignRunner runner{world.topo, params, threads};
  Measured m;
  const auto t0 = Clock::now();
  const auto result = runner.run(shards, {.collect_replies = collect_replies});
  m.seconds = secs_since(t0);
  fill_telemetry(m, result);
  return m;
}

struct AllocCheck {
  std::uint64_t probes = 0;
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

/// Verify the zero-allocation steady state: warm a Network with one full
/// pass of a probe set (populating the route cache, token buckets, learned
/// interfaces and negative caches), then count heap allocations across an
/// identical second pass through inject_view.
AllocCheck check_steady_state_allocations(const bench::World& world) {
  const auto ns = world.synth(world.seed_lists.front().name, 64);
  const auto& vantage = world.topo.vantages()[0];
  prober::Yarrp6Config cfg;
  cfg.src = vantage.src;
  const auto endpoint = cfg.endpoint();

  std::vector<simnet::Packet> probes;
  const std::size_t n_targets = std::min<std::size_t>(ns.set.addrs.size(), 4000);
  probes.reserve(n_targets * 16);
  for (std::size_t i = 0; i < n_targets; ++i)
    for (std::uint8_t ttl = 1; ttl <= 16; ++ttl)
      probes.push_back(wire::encode_probe(
          campaign::probe_spec_at(endpoint, ns.set.addrs[i], ttl, ttl * 1000)));

  simnet::Network net{world.topo};
  auto sweep = [&] {
    for (const auto& p : probes) {
      net.inject_view(p);
      net.advance_us(1000);
    }
  };
  sweep();  // warm-up: every cache/pool/table reaches steady state

  AllocCheck check;
  check.probes = probes.size();
  const auto allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  sweep();  // measured steady-state window
  check.allocations = g_allocs.load(std::memory_order_relaxed) - allocs0;
  check.bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
  return check;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.6;
  const char* out_path = argc > 2 ? argv[2] : "BENCH_hotpath.json";

  bench::World world{scale};
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const auto sets = world.all_sets(/*include_random=*/false);
  std::uint64_t n_targets = 0;
  for (const auto& ns : sets) n_targets += ns.set.addrs.size();
  std::fprintf(stderr, "hotpath: scale %.2f, %zu campaigns over %llu targets\n",
               scale, sets.size() * world.topo.vantages().size(),
               static_cast<unsigned long long>(n_targets));

  const auto alloc_check = check_steady_state_allocations(world);
  std::fprintf(stderr, "steady state: %llu probes, %llu allocations\n",
               static_cast<unsigned long long>(alloc_check.probes),
               static_cast<unsigned long long>(alloc_check.allocations));

  const auto fast =
      run_pipeline(world, sets, simnet::NetworkParams{}, 1, /*collect=*/false);
  std::fprintf(stderr, "fast: %.0f probes/sec\n", fast.pps());

  struct SweepPoint {
    unsigned threads;
    Measured m;
  };
  std::vector<SweepPoint> sweep;
  sweep.push_back({1, fast});
  for (const unsigned threads : {2u, 4u, 8u}) {
    sweep.push_back(
        {threads, run_pipeline(world, sets, simnet::NetworkParams{}, threads,
                               /*collect=*/false)});
    std::fprintf(stderr, "threads %u: %.0f probes/sec (efficiency %.2f)\n",
                 threads, sweep.back().m.pps(),
                 sweep.back().m.pps() / fast.pps() / threads);
  }

  // Merged-stream gate: the full workload with the global reply stream
  // collected, at 1 and 8 threads. The merged streams must be
  // bit-identical in canonical order — which worker ran which unit may
  // change only the wall-clock.
  const auto merged_1t =
      run_pipeline(world, sets, simnet::NetworkParams{}, 1, /*collect=*/true);
  const auto merged_8t =
      run_pipeline(world, sets, simnet::NetworkParams{}, 8, /*collect=*/true);
  const bool merge_deterministic =
      merged_1t.replies == merged_8t.replies &&
      merged_1t.reply_checksum == merged_8t.reply_checksum &&
      merged_1t.net_stats == merged_8t.net_stats;
  std::fprintf(stderr,
               "merged stream: %llu replies, checksum %016llx @1t / %016llx "
               "@8t, merge %.3fs @8t %s\n",
               static_cast<unsigned long long>(merged_8t.replies),
               static_cast<unsigned long long>(merged_1t.reply_checksum),
               static_cast<unsigned long long>(merged_8t.reply_checksum),
               merged_8t.merge.drain_seconds,
               merge_deterministic ? "" : "DETERMINISM MISMATCH");

  // Sub-shard scheduler guard: one giant shard (every target in one yarrp6
  // walk) — the shape thread scaling cannot touch without
  // ParallelRunOptions::split_factor. Measures unsplit @1 thread (the PR 3
  // wall-clock bound) against split 8 @1 and @8 threads; the two split
  // runs must agree exactly (thread-count invariance at fixed split).
  const auto all_targets = bench::concat_targets(sets);
  auto giant = [&](std::uint64_t split, unsigned threads) {
    const auto cfg = bench::table7_campaign_cfg(world.topo.vantages()[0].src);
    prober::Yarrp6Source source{cfg, all_targets};
    const std::vector<campaign::Shard> shards{
        {&source, cfg.endpoint(), cfg.pacing(), {}}};
    const campaign::ParallelCampaignRunner runner{world.topo,
                                                  simnet::NetworkParams{}, threads};
    Measured m;
    const auto t0 = Clock::now();
    const auto result = runner.run(
        shards, {.collect_replies = false, .split_factor = split});
    m.seconds = secs_since(t0);
    fill_telemetry(m, result);
    return m;
  };
  const auto giant_unsplit = giant(1, 1);
  const auto giant_split_1t = giant(8, 1);
  const auto giant_split_8t = giant(8, 8);
  const bool giant_deterministic =
      giant_split_1t.net_stats == giant_split_8t.net_stats;
  std::fprintf(stderr,
               "giant shard: unsplit %.3fs, split8@1t %.3fs, split8@8t %.3fs "
               "(%.2fx) %s\n",
               giant_unsplit.seconds, giant_split_1t.seconds,
               giant_split_8t.seconds,
               giant_unsplit.seconds / giant_split_8t.seconds,
               giant_deterministic ? "" : "DETERMINISM MISMATCH");

  // Epoch-snapshotted Doubletree: the last source that used to run whole
  // (shared stop set = unsplittable) now splits into an epoch-coupled
  // family. One giant Doubletree shard, unsplit vs split_factor 4 at
  // 1/2/8 threads: the slowest work unit's *virtual* time must drop with
  // the split factor, and — the determinism gate CI leans on — the split
  // runs must be identical across thread counts.
  auto giant_doubletree = [&](std::uint64_t split, unsigned threads) {
    prober::DoubletreeConfig cfg;
    cfg.src = world.topo.vantages()[0].src;
    cfg.pps = 1000;
    cfg.max_ttl = 16;
    cfg.start_ttl = 6;
    prober::StopSet stop_set;
    prober::DoubletreeSource source{cfg, all_targets, stop_set};
    const std::vector<campaign::Shard> shards{
        {&source, cfg.endpoint(), cfg.pacing(), {}}};
    const campaign::ParallelCampaignRunner runner{world.topo,
                                                  simnet::NetworkParams{}, threads};
    struct Out {
      Measured m;
      campaign::ProbeStats stats;
      std::uint64_t slowest_unit_virtual_us = 0;
    } out;
    const auto t0 = Clock::now();
    const auto result = runner.run(
        shards, {.collect_replies = false, .split_factor = split});
    out.m.seconds = secs_since(t0);
    fill_telemetry(out.m, result);
    out.stats = result.probe_stats;
    out.slowest_unit_virtual_us = result.elapsed_virtual_us;
    return out;
  };
  const auto dt_unsplit = giant_doubletree(1, 1);
  const auto dt_split_1t = giant_doubletree(4, 1);
  const auto dt_split_2t = giant_doubletree(4, 2);
  const auto dt_split_8t = giant_doubletree(4, 8);
  const bool dt_deterministic =
      dt_split_1t.m.net_stats == dt_split_2t.m.net_stats &&
      dt_split_1t.stats == dt_split_2t.stats &&
      dt_split_1t.m.net_stats == dt_split_8t.m.net_stats &&
      dt_split_1t.stats == dt_split_8t.stats;
  std::fprintf(stderr,
               "doubletree: unsplit slowest-unit %.1fs virtual, split4 %.1fs "
               "(%.2fx); split4 1t %.3fs / 2t %.3fs / 8t %.3fs wall %s\n",
               static_cast<double>(dt_unsplit.slowest_unit_virtual_us) / 1e6,
               static_cast<double>(dt_split_1t.slowest_unit_virtual_us) / 1e6,
               static_cast<double>(dt_unsplit.slowest_unit_virtual_us) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, dt_split_1t.slowest_unit_virtual_us)),
               dt_split_1t.m.seconds, dt_split_2t.m.seconds, dt_split_8t.m.seconds,
               dt_deterministic ? "" : "DETERMINISM MISMATCH");

  // Churn gate: the full Table 7 workload with a generated DynamicsSchedule
  // riding the shared params block — link failures, scoped and global ECMP
  // re-convergences, a rate-limit change and a loss/dup swap, all inside
  // the first virtual second (every work unit runs much longer, so every
  // replica replays the complete schedule). The merged reply streams at 1
  // and 8 threads must be bit-identical with churn live, and the schedule
  // must really bite: nonzero events applied and nonzero route-cache
  // invalidations (the second global re-convergence drops the private
  // entries accumulated after the first one bypassed the warm snapshot).
  simnet::ChurnParams churn_cp;
  churn_cp.seed = 5;
  churn_cp.horizon_us = 1000000;
  simnet::NetworkParams churn_params;
  churn_params.dynamics = std::make_shared<const simnet::DynamicsSchedule>(
      simnet::make_churn_schedule(
          world.topo, world.topo.vantages()[0],
          std::span<const Ipv6Addr>(all_targets.data(), all_targets.size()),
          churn_cp));
  const auto churn_1t =
      run_pipeline(world, sets, churn_params, 1, /*collect=*/true);
  const auto churn_8t =
      run_pipeline(world, sets, churn_params, 8, /*collect=*/true);
  const bool churn_deterministic =
      churn_1t.replies == churn_8t.replies &&
      churn_1t.reply_checksum == churn_8t.reply_checksum &&
      churn_1t.net_stats == churn_8t.net_stats;
  const bool churn_active = churn_8t.net_stats.dynamics_events > 0 &&
                            churn_8t.net_stats.route_invalidations > 0;
  std::fprintf(stderr,
               "churn: %zu events, %llu applied, %llu invalidations, "
               "checksum %016llx @1t / %016llx @8t %s%s\n",
               churn_params.dynamics->size(),
               static_cast<unsigned long long>(
                   churn_8t.net_stats.dynamics_events),
               static_cast<unsigned long long>(
                   churn_8t.net_stats.route_invalidations),
               static_cast<unsigned long long>(churn_1t.reply_checksum),
               static_cast<unsigned long long>(churn_8t.reply_checksum),
               churn_deterministic ? "" : "DETERMINISM MISMATCH",
               churn_active ? "" : " SCHEDULE INERT");

  const auto hits = fast.net_stats.route_cache_hits;
  const auto misses = fast.net_stats.route_cache_misses;
  const double hit_rate =
      hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                    : 0.0;

  std::FILE* out = std::fopen(out_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"hotpath\",\n");
  std::fprintf(out,
               "  \"workload\": {\"name\": \"table7_probing_phase\", \"scale\": %g, "
               "\"campaigns\": %zu, \"targets\": %llu, \"pps\": 1000, "
               "\"max_ttl\": 16, \"fill_mode\": true, \"collector_sinks\": true},\n",
               scale, sets.size() * world.topo.vantages().size(),
               static_cast<unsigned long long>(n_targets));
  std::fprintf(out,
               "  \"machine\": {\"hardware_threads\": %u, \"note\": \"thread "
               "sweep and scaling numbers are meaningful only relative to "
               "hardware_threads; compare across runs only on identical "
               "hardware — a 1-thread machine measures scheduling overhead, "
               "not scaling\"},\n",
               hw_threads);
  std::fprintf(out,
               "  \"fast_path\": {\"desc\": \"route cache + packet pools + span "
               "inject + flat collector state\", \"probes\": %llu, \"seconds\": "
               "%.3f, \"probes_per_sec\": %.0f, \"route_cache_hits\": %llu, "
               "\"route_cache_misses\": %llu, \"hit_rate\": %.4f},\n",
               static_cast<unsigned long long>(fast.probes), fast.seconds,
               fast.pps(), static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(misses), hit_rate);
  std::fprintf(out, "  \"threads_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i)
    std::fprintf(out,
                 "    %s{\"threads\": %u, \"probes\": %llu, \"seconds\": %.3f, "
                 "\"probes_per_sec\": %.0f, \"scaling_efficiency\": %.3f, "
                 "\"warmup_seconds\": %.3f, \"warmed_routes\": %llu, "
                 "\"replica_builds\": %llu, \"worker_busy_max_seconds\": %.3f}",
                 i ? ", " : "", sweep[i].threads,
                 static_cast<unsigned long long>(sweep[i].m.probes),
                 sweep[i].m.seconds, sweep[i].m.pps(),
                 sweep[i].m.pps() / fast.pps() / sweep[i].threads,
                 sweep[i].m.warmup_seconds,
                 static_cast<unsigned long long>(sweep[i].m.warmed_routes),
                 static_cast<unsigned long long>(
                     sweep[i].m.net_stats.replica_builds),
                 sweep[i].m.busy_max());
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"scaling\": {\"threads_8_probes_per_sec\": %.0f, "
               "\"speedup_8t\": %.2f, \"efficiency_8t\": %.3f, "
               "\"hardware_threads\": %u},\n",
               sweep.back().m.pps(), sweep.back().m.pps() / fast.pps(),
               sweep.back().m.pps() / fast.pps() / 8.0, hw_threads);
  std::fprintf(out,
               "  \"streamed_merge\": {\"desc\": \"full workload with the "
               "global reply stream collected: per-unit sorted runs k-way "
               "merged into the canonical order after the workers join; the "
               "1t and 8t streams must be bit-identical\", "
               "\"replies\": %llu, \"checksum_1t\": \"%016llx\", "
               "\"checksum_8t\": \"%016llx\", \"thread_invariant\": %s, "
               "\"seconds_1t\": %.3f, \"seconds_8t\": %.3f, "
               "\"merge_drain_seconds_8t\": %.3f, "
               "\"merge_tail_seconds_8t\": %.3f, "
               "\"workers_8t\": [",
               static_cast<unsigned long long>(merged_8t.replies),
               static_cast<unsigned long long>(merged_1t.reply_checksum),
               static_cast<unsigned long long>(merged_8t.reply_checksum),
               merge_deterministic ? "true" : "false", merged_1t.seconds,
               merged_8t.seconds, merged_8t.merge.drain_seconds,
               merged_8t.merge.tail_seconds);
  for (std::size_t w = 0; w < merged_8t.workers.size(); ++w)
    std::fprintf(out, "%s{\"units_run\": %llu, \"busy_seconds\": %.3f}",
                 w ? ", " : "",
                 static_cast<unsigned long long>(merged_8t.workers[w].units_run),
                 merged_8t.workers[w].busy_seconds);
  std::fprintf(out, "]},\n");
  std::fprintf(out,
               "  \"giant_shard\": {\"desc\": \"one yarrp6 campaign over all "
               "targets; split_factor over-decomposes the walk so threads can "
               "steal below shard granularity\", \"targets\": %zu, "
               "\"unsplit_1thread_seconds\": %.3f, \"split8_1thread_seconds\": "
               "%.3f, \"split8_8threads_seconds\": %.3f, "
               "\"split8_speedup_vs_unsplit\": %.2f, "
               "\"split_thread_invariant\": %s, "
               "\"warmup_seconds_8t\": %.3f, \"warmed_routes_8t\": %llu, "
               "\"replica_builds_8t\": %llu, "
               "\"worker_busy_max_seconds_8t\": %.3f},\n",
               all_targets.size(), giant_unsplit.seconds, giant_split_1t.seconds,
               giant_split_8t.seconds,
               giant_unsplit.seconds / giant_split_8t.seconds,
               giant_deterministic ? "true" : "false",
               giant_split_8t.warmup_seconds,
               static_cast<unsigned long long>(giant_split_8t.warmed_routes),
               static_cast<unsigned long long>(
                   giant_split_8t.net_stats.replica_builds),
               giant_split_8t.busy_max());
  std::fprintf(out,
               "  \"doubletree_split\": {\"desc\": \"one Doubletree campaign "
               "over all targets as an epoch-snapshotted split family "
               "(SnapshotStopSet): slowest-work-unit virtual time vs "
               "split_factor, with a 1/2/8-thread invariance gate\", "
               "\"targets\": %zu, \"split_factor\": 4, "
               "\"unsplit_slowest_unit_virtual_s\": %.3f, "
               "\"split4_slowest_unit_virtual_s\": %.3f, "
               "\"virtual_time_ratio\": %.2f, "
               "\"split4_1thread_seconds\": %.3f, "
               "\"split4_2threads_seconds\": %.3f, "
               "\"split4_8threads_seconds\": %.3f, "
               "\"thread_invariant\": %s},\n",
               all_targets.size(),
               static_cast<double>(dt_unsplit.slowest_unit_virtual_us) / 1e6,
               static_cast<double>(dt_split_1t.slowest_unit_virtual_us) / 1e6,
               static_cast<double>(dt_unsplit.slowest_unit_virtual_us) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, dt_split_1t.slowest_unit_virtual_us)),
               dt_split_1t.m.seconds, dt_split_2t.m.seconds, dt_split_8t.m.seconds,
               dt_deterministic ? "true" : "false");
  std::fprintf(out,
               "  \"churn\": {\"desc\": \"full workload with a generated "
               "DynamicsSchedule live (link failure/recovery, scoped+global "
               "ECMP re-convergence, rate-limit and loss-model swaps inside "
               "the first virtual second): the 1t and 8t merged streams must "
               "stay bit-identical and the schedule must really fire\", "
               "\"events\": %zu, \"dynamics_events_8t\": %llu, "
               "\"route_invalidations_8t\": %llu, \"dup_replies_8t\": %llu, "
               "\"replies\": %llu, \"checksum_1t\": \"%016llx\", "
               "\"checksum_8t\": \"%016llx\", \"thread_invariant\": %s, "
               "\"schedule_active\": %s, \"seconds_1t\": %.3f, "
               "\"seconds_8t\": %.3f, \"probes_per_sec_1t\": %.0f, "
               "\"probes_per_sec_8t\": %.0f},\n",
               churn_params.dynamics->size(),
               static_cast<unsigned long long>(
                   churn_8t.net_stats.dynamics_events),
               static_cast<unsigned long long>(
                   churn_8t.net_stats.route_invalidations),
               static_cast<unsigned long long>(churn_8t.net_stats.dup_replies),
               static_cast<unsigned long long>(churn_8t.replies),
               static_cast<unsigned long long>(churn_1t.reply_checksum),
               static_cast<unsigned long long>(churn_8t.reply_checksum),
               churn_deterministic ? "true" : "false",
               churn_active ? "true" : "false", churn_1t.seconds,
               churn_8t.seconds, churn_1t.pps(), churn_8t.pps());
  std::fprintf(out,
               "  \"steady_state_allocations\": {\"probes\": %llu, "
               "\"allocations\": %llu, \"bytes\": %llu}\n",
               static_cast<unsigned long long>(alloc_check.probes),
               static_cast<unsigned long long>(alloc_check.allocations),
               static_cast<unsigned long long>(alloc_check.bytes));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path);

  if (!giant_deterministic) {
    std::fprintf(stderr,
                 "FAIL: giant-shard split run changed results across thread "
                 "counts (split_factor must be thread-count invariant)\n");
    return 1;
  }
  if (!dt_deterministic) {
    std::fprintf(stderr,
                 "FAIL: split Doubletree run changed results across thread "
                 "counts (the epoch barrier must make the family "
                 "thread-count invariant)\n");
    return 1;
  }
  if (!merge_deterministic) {
    std::fprintf(stderr,
                 "FAIL: merged stream produced different reply streams at 1 "
                 "and 8 threads (the canonical-order contract is broken)\n");
    return 1;
  }
  if (!churn_deterministic) {
    std::fprintf(stderr,
                 "FAIL: churn run produced different reply streams at 1 and "
                 "8 threads (a DynamicsSchedule must be part of the campaign "
                 "spec — replayed identically by every replica)\n");
    return 1;
  }
  if (!churn_active) {
    std::fprintf(stderr,
                 "FAIL: churn schedule was inert (%llu events applied, %llu "
                 "route invalidations) — the gate proved nothing\n",
                 static_cast<unsigned long long>(
                     churn_8t.net_stats.dynamics_events),
                 static_cast<unsigned long long>(
                     churn_8t.net_stats.route_invalidations));
    return 1;
  }
  if (alloc_check.allocations != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state inject path allocated %llu times over %llu "
                 "probes (must be zero)\n",
                 static_cast<unsigned long long>(alloc_check.allocations),
                 static_cast<unsigned long long>(alloc_check.probes));
    return 1;
  }
  // Scaling red gate: on real multi-core hardware, 8 worker threads must
  // never be slower than 1 — negative scaling was the bug this backend's
  // shared-snapshot/arena architecture exists to fix. On a 1-thread
  // machine the sweep cannot measure scaling at all, so warn instead.
  if (sweep.back().m.pps() < fast.pps()) {
    if (hw_threads >= 2) {
      std::fprintf(stderr,
                   "FAIL: 8 worker threads slower than 1 (%.0f vs %.0f "
                   "probes/sec) on a %u-thread machine\n",
                   sweep.back().m.pps(), fast.pps(), hw_threads);
      return 1;
    }
    std::fprintf(stderr,
                 "WARN: 8 worker threads slower than 1 (%.0f vs %.0f "
                 "probes/sec), but this machine has a single hardware "
                 "thread — scaling not enforceable here\n",
                 sweep.back().m.pps(), fast.pps());
  }
  return 0;
}
