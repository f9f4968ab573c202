#include "analysis/pathdiv.hpp"

#include <algorithm>

namespace beholder6::analysis {

namespace {

using beholder6::topology::Trace;

// The §6 rules no caller varies, at the paper's values.
constexpr unsigned kLcsTargetAsnHops = 1;  // C: LCS hops in the target's ASN
constexpr unsigned kDsTargetAsnHops = 1;   // S: DS hops in the target's ASN

/// Hop ASN via BGP origin of the hop's interface address, augmented with
/// the RIR-registered prefixes for router space that is not announced
/// (paper §6 complication (b)). Longest RIR match wins where BGP has none.
std::optional<simnet::Asn> hop_asn(const simnet::Topology& topo,
                                   const PathDivParams& params,
                                   const Ipv6Addr& a) {
  if (const auto o = topo.origin(a)) return params.canonical(*o);
  const std::pair<Prefix, simnet::Asn>* best = nullptr;
  for (const auto& entry : params.rir_prefixes)
    if (entry.first.contains(a) && (!best || entry.first.len() > best->first.len()))
      best = &entry;
  if (best) return params.canonical(best->second);
  return std::nullopt;
}

/// Contiguity check: TTLs t..t+len-1 all present as TE hops.
bool contiguous(const Trace& tr, std::uint8_t from_ttl, unsigned len) {
  for (unsigned i = 0; i < len; ++i) {
    const auto it = tr.hops.find(static_cast<std::uint8_t>(from_ttl + i));
    if (it == tr.hops.end() ||
        it->second.type != wire::Icmp6Type::kTimeExceeded)
      return false;
  }
  return true;
}

}  // namespace

std::vector<CandidateSubnet> ia_hack(
    const beholder6::topology::TraceCollector& collector) {
  std::vector<CandidateSubnet> out;
  // beholder6: lint-allow(unordered-iter): collected candidates are sorted
  // into target order below, so the table's visit order cannot leak
  for (const auto& [target, trace] : collector.traces()) {
    const auto hops = trace.router_hops();
    if (hops.empty()) continue;
    const auto& last = hops.back();
    if (last.lo() == 1 && last.hi() == target.hi() && last != target)
      out.push_back(CandidateSubnet{target, 64, true});
  }
  // Canonical order: the collector's trace table iterates in layout order
  // (deterministic for one insertion history, but serial and split-merged
  // runs build different histories from identical trace content). Sorting
  // makes the candidate list a pure function of the trace *set*.
  std::sort(out.begin(), out.end(),
            [](const CandidateSubnet& a, const CandidateSubnet& b) {
              return a.target < b.target;
            });
  return out;
}

PathDivResult discover_by_path_div(
    const beholder6::topology::TraceCollector& collector,
    const simnet::Topology& topo, const simnet::VantageInfo& vantage,
    const PathDivParams& params) {
  PathDivResult result;

  // Sort targets so adjacent comparisons maximize DPL.
  std::vector<const Trace*> traces;
  traces.reserve(collector.traces().size());
  // beholder6: lint-allow(unordered-iter): collected pointers are sorted by
  // target immediately below; table order cannot reach the pair scan
  for (const auto& [t, tr] : collector.traces())
    if (!tr.hops.empty()) traces.push_back(&tr);
  std::sort(traces.begin(), traces.end(),
            [](const Trace* a, const Trace* b) { return a->target < b->target; });

  for (std::size_t i = 0; i + 1 < traces.size(); ++i) {
    const Trace& a = *traces[i];
    const Trace& b = *traces[i + 1];
    ++result.pairs_examined;

    auto asn_a = topo.origin(a.target), asn_b = topo.origin(b.target);
    if (asn_a) asn_a = params.canonical(*asn_a);
    if (asn_b) asn_b = params.canonical(*asn_b);
    // T: both targets in one ASN.
    if (!asn_a || !asn_b || *asn_a != *asn_b) continue;
    const simnet::Asn target_asn = *asn_a;

    const auto ha = a.router_hops(), hb = b.router_hops();
    if (ha.empty() || hb.empty()) continue;

    // LCS: longest common prefix of the two hop sequences.
    std::size_t lcs = 0;
    while (lcs < ha.size() && lcs < hb.size() && ha[lcs] == hb[lcs]) ++lcs;
    if (lcs < params.min_lcs_len) continue;

    // The LCS must be TTL-contiguous in both traces (no silent hops inside).
    const auto first_a = a.hops.begin()->first, first_b = b.hops.begin()->first;
    if (!contiguous(a, first_a, static_cast<unsigned>(lcs)) ||
        !contiguous(b, first_b, static_cast<unsigned>(lcs)) || first_a != first_b)
      continue;

    // C: at least this many LCS hops inside the target's ASN.
    unsigned in_asn = 0;
    for (std::size_t k = 0; k < lcs; ++k)
      in_asn += hop_asn(topo, params, ha[k]) == target_asn;
    if (in_asn < kLcsTargetAsnHops) continue;

    // Divergent suffixes; z = 0: neither may be empty.
    const std::size_t dsa = ha.size() - lcs, dsb = hb.size() - lcs;
    if (dsa == 0 || dsb == 0) continue;
    if (dsa < params.min_ds_len || dsb < params.min_ds_len) continue;

    // S: DS hops in the target's ASN.
    unsigned sa = 0, sb = 0;
    for (std::size_t k = lcs; k < ha.size(); ++k)
      sa += hop_asn(topo, params, ha[k]) == target_asn;
    for (std::size_t k = lcs; k < hb.size(); ++k)
      sb += hop_asn(topo, params, hb[k]) == target_asn;
    if (sa < kDsTargetAsnHops || sb < kDsTargetAsnHops) continue;

    // A: last hops must have left the vantage ASN (canonicalized, so a
    // vantage homed in one sibling of an equivalent-ASN family is treated
    // as inside the whole family).
    const auto vasn = params.canonical(vantage.asn);
    if (hop_asn(topo, params, ha.back()) == vasn ||
        hop_asn(topo, params, hb.back()) == vasn)
      continue;

    ++result.pairs_divergent;
    const unsigned dpl = a.target.common_prefix_len(b.target) + 1;
    result.candidates.push_back(CandidateSubnet{a.target, std::min(dpl, 64u), false});
    result.candidates.push_back(CandidateSubnet{b.target, std::min(dpl, 64u), false});
  }

  // Fold in the IA hack (/64 pinning), as the paper's discoverByPathDiv does.
  for (auto c : ia_hack(collector)) {
    result.candidates.push_back(c);
    ++result.ia_hack_count;
  }
  return result;
}

std::vector<std::size_t> length_histogram(const std::set<Prefix>& prefixes) {
  std::vector<std::size_t> hist(65, 0);
  for (const auto& p : prefixes) ++hist[std::min(p.len(), 64u)];
  return hist;
}

}  // namespace beholder6::analysis
