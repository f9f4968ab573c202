// parallel_campaigns — wall-clock scaling of the sharded parallel campaign
// backend on the Table 7 workload (every seed list at z48 and z64, probed
// from all three vantages: 3 × |sets| independent yarrp6 campaigns).
//
// Runs the identical shard list at 1, 2, 4 and 8 worker threads, timing
// each pass, and verifies the backend's determinism contract as it goes:
// merged ProbeStats, merged NetworkStats, and the (virtual time, shard,
// arrival)-ordered reply stream must be bit-identical at every thread
// count. Reports virtual-probe throughput and speedup over the 1-thread
// pass. Expect near-linear scaling up to the core count (shards share
// nothing but the immutable topology); on a 1-core host the
// determinism check still runs but speedup stays ~1×.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "campaign/parallel.hpp"
#include "prober/doubletree.hpp"

using namespace beholder6;

namespace {

using bench::reply_digest;

struct Pass {
  unsigned threads = 0;
  double seconds = 0;
  campaign::ProbeStats probe_stats;
  simnet::NetworkStats net_stats;
  std::size_t replies = 0;
  std::uint64_t digest = 0;
  std::uint64_t elapsed_virtual_us = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.6;
  bench::World world{scale};
  const auto sets = world.all_sets(/*include_random=*/false);
  const auto& vantages = world.topo.vantages();

  std::printf("Parallel campaign backend: Table 7 workload, %zu shards "
              "(%zu sets x %zu vantages), hardware threads: %u\n",
              sets.size() * vantages.size(), sets.size(), vantages.size(),
              std::thread::hardware_concurrency());
  bench::rule('=');
  std::printf("%8s %10s %12s %10s %9s  %s\n", "Threads", "Wall (s)", "Probes/s",
              "Replies", "Speedup", "Determinism");
  bench::rule();

  std::vector<Pass> passes;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    // Sources are stateful: build a fresh shard list per pass.
    std::vector<std::unique_ptr<prober::Yarrp6Source>> sources;
    sources.reserve(sets.size() * vantages.size());
    std::vector<campaign::Shard> shards;
    shards.reserve(sources.capacity());
    for (const auto& ns : sets) {
      for (const auto& vantage : vantages) {
        const auto cfg = bench::table7_campaign_cfg(vantage.src);
        sources.push_back(std::make_unique<prober::Yarrp6Source>(cfg, ns.set.addrs));
        shards.push_back({sources.back().get(), cfg.endpoint(), cfg.pacing(), {}});
      }
    }

    const campaign::ParallelCampaignRunner runner{world.topo,
                                                  simnet::NetworkParams{}, threads};
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = runner.run(shards);
    const auto t1 = std::chrono::steady_clock::now();

    Pass pass;
    pass.threads = threads;
    pass.seconds = std::chrono::duration<double>(t1 - t0).count();
    pass.probe_stats = result.probe_stats;
    pass.net_stats = result.net_stats;
    pass.replies = result.replies.size();
    pass.digest = reply_digest(result.replies);
    pass.elapsed_virtual_us = result.elapsed_virtual_us;

    const bool identical =
        passes.empty() || (pass.probe_stats == passes.front().probe_stats &&
                           pass.net_stats == passes.front().net_stats &&
                           pass.digest == passes.front().digest);
    const double speedup =
        passes.empty() ? 1.0 : passes.front().seconds / pass.seconds;
    std::printf("%8u %10.3f %12s %10zu %8.2fx  %s\n", threads, pass.seconds,
                bench::human(static_cast<double>(pass.probe_stats.probes_sent) /
                             pass.seconds)
                    .c_str(),
                pass.replies, speedup,
                passes.empty()     ? "baseline"
                : identical        ? "bit-identical to 1-thread"
                                   : "MISMATCH (bug!)");
    if (!identical) return 1;
    passes.push_back(pass);
  }
  bench::rule();
  std::printf("Merged totals: %llu probes, %llu replies, %llu rate-limited; "
              "slowest-shard virtual time %.1fs\n",
              static_cast<unsigned long long>(passes[0].probe_stats.probes_sent),
              static_cast<unsigned long long>(passes[0].probe_stats.replies),
              static_cast<unsigned long long>(passes[0].net_stats.rate_limited),
              static_cast<double>(passes[0].elapsed_virtual_us) / 1e6);

  // ---- Sub-shard work distribution: the single-giant-shard workload ------
  // One yarrp6 campaign over every target at once — the shape that used to
  // defeat the parallel backend entirely (one shard = one thread, whatever
  // the pool size). With split_factor 8 the walk over-decomposes into 8
  // deterministic subshards that drain across the pool. Re-checks the PR
  // acceptance criterion: split 8 on 8 threads must beat the unsplit
  // single-shard wall-clock (on multi-core hosts), while staying
  // bit-identical across 1/2/8 threads at the fixed split factor.
  const auto all_targets = bench::concat_targets(sets);
  std::printf("\nGiant single shard: one yarrp6 campaign over all %zu targets "
              "(the pre-split wall-clock bound)\n",
              all_targets.size());
  bench::rule('=');
  std::printf("%8s %8s %10s %12s %9s  %s\n", "Split", "Threads", "Wall (s)",
              "Probes/s", "Speedup", "Determinism");
  bench::rule();

  auto giant_pass = [&](std::uint64_t split, unsigned threads) {
    const auto cfg = bench::table7_campaign_cfg(vantages[0].src);
    prober::Yarrp6Source source{cfg, all_targets};
    const std::vector<campaign::Shard> shards{
        {&source, cfg.endpoint(), cfg.pacing(), {}}};
    const campaign::ParallelCampaignRunner runner{world.topo,
                                                  simnet::NetworkParams{}, threads};
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = runner.run(shards, {.split_factor = split});
    Pass pass;
    pass.threads = threads;
    pass.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    pass.probe_stats = result.probe_stats;
    pass.net_stats = result.net_stats;
    pass.replies = result.replies.size();
    pass.digest = reply_digest(result.replies);
    pass.elapsed_virtual_us = result.elapsed_virtual_us;
    return pass;
  };

  const Pass unsplit = giant_pass(1, 1);
  std::printf("%8u %8u %10.3f %12s %8.2fx  %s\n", 1u, 1u, unsplit.seconds,
              bench::human(static_cast<double>(unsplit.probe_stats.probes_sent) /
                           unsplit.seconds)
                  .c_str(),
              1.0, "single-shard baseline (PR 3 bound)");
  std::vector<Pass> split_passes;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const Pass pass = giant_pass(8, threads);
    const bool identical =
        split_passes.empty() ||
        (pass.probe_stats == split_passes.front().probe_stats &&
         pass.net_stats == split_passes.front().net_stats &&
         pass.digest == split_passes.front().digest);
    std::printf("%8u %8u %10.3f %12s %8.2fx  %s\n", 8u, threads, pass.seconds,
                bench::human(static_cast<double>(pass.probe_stats.probes_sent) /
                             pass.seconds)
                    .c_str(),
                unsplit.seconds / pass.seconds,
                split_passes.empty() ? "baseline at split 8"
                : identical          ? "bit-identical to 1-thread"
                                     : "MISMATCH (bug!)");
    if (!identical) return 1;
    split_passes.push_back(pass);
  }
  bench::rule();
  const double best = split_passes.back().seconds;
  std::printf("Slowest-unit virtual time %.1fs (was %.1fs unsplit); "
              "split 8 @ 8 threads vs single shard: %.2fx — %s\n",
              static_cast<double>(split_passes.back().elapsed_virtual_us) / 1e6,
              static_cast<double>(unsplit.elapsed_virtual_us) / 1e6,
              unsplit.seconds / best,
              best < unsplit.seconds
                  ? "BEATS the single-shard wall-clock"
                  : "not faster here (expected on 1-core hosts)");

  // ---- Epoch-snapshotted Doubletree: the last unsplittable source --------
  // Doubletree's shared stop set used to force whole-shard runs (the one
  // remaining "falls back" asterisk after the yarrp6/sequential splits).
  // split(k) now partitions the target list over a SnapshotStopSet — a
  // frozen per-epoch read set plus private per-child write deltas, merged
  // at deterministic barriers in canonical subshard order — so the same
  // contract holds here: split 8 stays bit-identical across 1/2/8 threads
  // while the slowest work unit's virtual time collapses.
  std::printf("\nGiant Doubletree shard: one stop-set campaign over all %zu "
              "targets (epoch-snapshotted split family)\n",
              all_targets.size());
  bench::rule('=');
  std::printf("%8s %8s %10s %12s %9s  %s\n", "Split", "Threads", "Wall (s)",
              "Probes/s", "Speedup", "Determinism");
  bench::rule();

  auto doubletree_pass = [&](std::uint64_t split, unsigned threads) {
    prober::DoubletreeConfig cfg;
    cfg.src = vantages[0].src;
    cfg.pps = 1000;
    cfg.max_ttl = 16;
    cfg.start_ttl = 6;
    prober::StopSet stop_set;
    prober::DoubletreeSource source{cfg, all_targets, stop_set};
    const std::vector<campaign::Shard> shards{
        {&source, cfg.endpoint(), cfg.pacing(), {}}};
    const campaign::ParallelCampaignRunner runner{world.topo,
                                                  simnet::NetworkParams{}, threads};
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = runner.run(shards, {.split_factor = split});
    Pass pass;
    pass.threads = threads;
    pass.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    pass.probe_stats = result.probe_stats;
    pass.net_stats = result.net_stats;
    pass.replies = result.replies.size();
    pass.digest = reply_digest(result.replies);
    pass.elapsed_virtual_us = result.elapsed_virtual_us;
    return pass;
  };

  const Pass dt_unsplit = doubletree_pass(1, 1);
  std::printf("%8u %8u %10.3f %12s %8.2fx  %s\n", 1u, 1u, dt_unsplit.seconds,
              bench::human(static_cast<double>(dt_unsplit.probe_stats.probes_sent) /
                           dt_unsplit.seconds)
                  .c_str(),
              1.0, "serial stop set (the old fallback)");
  std::vector<Pass> dt_passes;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const Pass pass = doubletree_pass(8, threads);
    const bool identical =
        dt_passes.empty() ||
        (pass.probe_stats == dt_passes.front().probe_stats &&
         pass.net_stats == dt_passes.front().net_stats &&
         pass.digest == dt_passes.front().digest);
    std::printf("%8u %8u %10.3f %12s %8.2fx  %s\n", 8u, threads, pass.seconds,
                bench::human(static_cast<double>(pass.probe_stats.probes_sent) /
                             pass.seconds)
                    .c_str(),
                dt_unsplit.seconds / pass.seconds,
                dt_passes.empty() ? "baseline at split 8"
                : identical       ? "bit-identical to 1-thread"
                                  : "MISMATCH (bug!)");
    if (!identical) return 1;
    dt_passes.push_back(pass);
  }
  bench::rule();
  const double dt_best = dt_passes.back().seconds;
  std::printf("Slowest-unit virtual time %.1fs (was %.1fs unsplit); "
              "split 8 @ 8 threads vs serial stop set: %.2fx — %s\n",
              static_cast<double>(dt_passes.back().elapsed_virtual_us) / 1e6,
              static_cast<double>(dt_unsplit.elapsed_virtual_us) / 1e6,
              dt_unsplit.seconds / dt_best,
              dt_best < dt_unsplit.seconds
                  ? "BEATS the whole-shard wall-clock"
                  : "not faster here (expected on 1-core hosts)");
  return 0;
}
