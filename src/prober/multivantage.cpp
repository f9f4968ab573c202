#include "prober/multivantage.hpp"

#include <memory>

namespace beholder6::prober {

MultiVantageResult run_multi_vantage(simnet::Network& net,
                                     const std::vector<simnet::VantageInfo>& vantages,
                                     const std::vector<Ipv6Addr>& targets,
                                     Yarrp6Config base_cfg,
                                     const MultiVantageOptions& options) {
  MultiVantageResult result;
  base_cfg.shard_count = vantages.size();

  std::vector<std::unique_ptr<Yarrp6Source>> sources;
  sources.reserve(vantages.size());
  auto make_source = [&](std::size_t i) {
    Yarrp6Config cfg = base_cfg;
    cfg.src = vantages[i].src;
    cfg.shard = i;
    sources.push_back(std::make_unique<Yarrp6Source>(cfg, targets));
    return cfg;
  };
  const campaign::ResponseSink merge = [&](const wire::DecodedReply& r) {
    result.collector.on_reply(r);
  };

  if (options.interleave) {
    // One event queue: the vantages probe concurrently in virtual time.
    campaign::CampaignRunner runner{net};
    for (std::size_t i = 0; i < vantages.size(); ++i) {
      const auto cfg = make_source(i);
      runner.add(*sources.back(), cfg.endpoint(), cfg.pacing(), merge);
    }
    result.per_vantage = runner.run();
  } else {
    // Sequential schedule: each vantage's campaign completes before the
    // next begins, on the same network (buckets keep their state).
    for (std::size_t i = 0; i < vantages.size(); ++i) {
      const auto cfg = make_source(i);
      result.per_vantage.push_back(campaign::CampaignRunner::run_one(
          net, *sources.back(), cfg.endpoint(), cfg.pacing(), merge));
    }
  }
  return result;
}

}  // namespace beholder6::prober
