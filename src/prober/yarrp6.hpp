// prober/yarrp6.hpp — the paper's prober (§4.1), as a campaign ProbeSource.
//
// Yarrp6 walks the (target × TTL) space in a keyed random permutation,
// paced uniformly at the configured pps. It keeps *no per-trace state*:
// everything needed to interpret a reply rides inside the probe and comes
// back in the ICMPv6 quotation. Two optional enhancements from the paper:
//
//   fill mode      — when a response arrives for a probe with hop limit
//                    h >= max_ttl, immediately probe the same target at
//                    h+1 (sequential, but rare and at the path tail),
//                    up to an absolute hop cap.
//   neighborhood   — Doubletree-flavored local heuristic: for TTLs at or
//                    below a threshold, stop probing a TTL whose recent
//                    probes stopped yielding *new* interface addresses.
//
// Yarrp6Source emits that order through the pull API; a campaign is one
// source driven by campaign::CampaignRunner at Yarrp6Config::pacing().
#pragma once

#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "campaign/probe_source.hpp"
#include "netbase/permutation.hpp"
#include "prober/prober.hpp"

namespace beholder6::prober {

struct Yarrp6Config : ProbeConfig {
  std::uint64_t permutation_key = 0x59a9;
  /// Sharding for multi-vantage campaigns: this instance walks permuted
  /// indices shard, shard+shard_count, ... so k vantages with the same key
  /// and shard_count=k partition the probe space exactly.
  std::uint64_t shard = 0;
  std::uint64_t shard_count = 1;
  bool fill_mode = false;
  std::uint8_t fill_cap = 32;      // absolute hop-limit ceiling for fills
  bool neighborhood = false;
  std::uint8_t neighborhood_ttl = 3;     // TTLs <= this may be skipped
  std::uint64_t neighborhood_window_us = 2'000'000;  // staleness window

  /// The pacing this prober's order was designed for.
  [[nodiscard]] campaign::PacingPolicy pacing() const {
    return campaign::PacingPolicy::uniform(pps);
  }
};

/// Pull-based yarrp6 order: permuted (target × TTL) walk with optional
/// fill chains and neighborhood skipping. The targets span must outlive
/// the source.
class Yarrp6Source final : public campaign::ProbeSource {
 public:
  Yarrp6Source(const Yarrp6Config& cfg, std::span<const Ipv6Addr> targets)
      : cfg_(cfg), targets_(targets) {}

  void begin(std::uint64_t now_us) override;
  campaign::Poll next(std::uint64_t now_us) override;
  void on_reply(const campaign::Probe& probe, const wire::DecodedReply& reply,
                std::uint64_t now_us) override;
  void on_probe_done(const campaign::Probe& probe, bool answered,
                     std::uint64_t now_us) override;
  void finish(campaign::ProbeStats& stats) const override;
  [[nodiscard]] std::optional<Ipv6Addr> next_target_hint() const override;
  /// Every probe targets one of the configured addresses (fill probes
  /// included — they re-walk a target's path), so the target list is the
  /// exact route-warmup set.
  [[nodiscard]] std::span<const Ipv6Addr> route_warm_targets() const override {
    return targets_;
  }

  /// Deterministic over-decomposition by stride multiplication — the same
  /// math that backs shard/shard_count: child i of k walks permuted indices
  /// shard + i·shard_count, stepping by shard_count·k. For a full walk
  /// (shard 0 of 1), split(k) therefore *is* the classic shard/shard_count
  /// partition: child i ≡ {shard = i, shard_count = k}. Children jointly
  /// visit exactly the parent's cells; fill chains ride inside the child
  /// that emitted the horizon probe (as they already do across manual
  /// shards), and neighborhood bookkeeping is child-private — which is why
  /// k is part of the campaign spec, not a free performance knob. Child 0
  /// alone reports the shared trace count, so parent-level stats fold to
  /// the unsplit value. k clamps to the walk's remaining position count
  /// (children past it would be born exhausted); 0 or 1 positions report
  /// unsplittable.
  [[nodiscard]] std::vector<std::unique_ptr<campaign::ProbeSource>> split(
      std::uint64_t k) const override;

 private:
  Yarrp6Config cfg_;
  bool report_traces_ = true;  // split(): only child 0 reports traces
  std::span<const Ipv6Addr> targets_;
  std::optional<Permutation> perm_;
  std::uint64_t domain_ = 0;
  std::uint64_t index_ = 0;
  std::uint64_t stride_ = 1;
  bool exhausted_ = false;
  // Fill-chain state: at most one pending fill probe at a time.
  bool fill_pending_ = false;
  Ipv6Addr fill_target_;
  std::uint8_t fill_ttl_ = 0;
  bool still_on_path_ = false;  // last reply was Time Exceeded
  // Look-ahead state: the next permuted position, resolved one poll early
  // so its target line is in cache (and hintable) before it is needed.
  bool pending_valid_ = false;
  std::uint64_t pending_v_ = 0;
  // Neighborhood-mode bookkeeping, indexed by TTL; begin() allocates the
  // tables only in neighborhood mode.
  std::uint64_t skips_ = 0;
  std::vector<std::uint64_t> last_new_us_;
  std::vector<std::unordered_set<Ipv6Addr, Ipv6AddrHash>> seen_at_ttl_;
};

}  // namespace beholder6::prober
