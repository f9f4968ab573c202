#include "target/synthesis.hpp"

#include "netbase/flat_map.hpp"

namespace beholder6::target {

namespace {

TargetSet synthesize_iid(const SeedList& zn_list, std::uint64_t iid,
                         const char* suffix) {
  TargetSet set;
  set.name = zn_list.name + suffix;
  set.addrs.reserve(zn_list.entries.size());
  netbase::FlatSet<Ipv6Addr, Ipv6AddrHash> seen;
  seen.reserve(zn_list.entries.size());
  for (const auto& e : zn_list.entries) {
    const auto a = e.base() | Ipv6Addr::from_halves(0, iid);
    if (seen.insert(a).second) set.addrs.push_back(a);
  }
  return set;
}

}  // namespace

TargetSet synthesize_fixediid(const SeedList& zn_list) {
  return synthesize_iid(zn_list, kFixedIid, "-fixediid");
}

TargetSet synthesize_lowbyte1(const SeedList& zn_list) {
  return synthesize_iid(zn_list, 1, "-lowbyte1");
}

TargetSet synthesize_known(const SeedList& zn_list,
                           const std::vector<Ipv6Addr>& known) {
  TargetSet set;
  set.name = zn_list.name + "-known";
  // All entries of a transformed list share one length; membership is a
  // hash lookup on the masked address.
  const unsigned zn = zn_list.entries.empty() ? 64 : zn_list.entries[0].len();
  netbase::FlatSet<Ipv6Addr, Ipv6AddrHash> bases;
  bases.reserve(zn_list.entries.size());
  for (const auto& e : zn_list.entries) bases.insert(e.base());
  netbase::FlatSet<Ipv6Addr, Ipv6AddrHash> seen;
  for (const auto& a : known)
    if (bases.contains(a.masked(zn)) && seen.insert(a).second)
      set.addrs.push_back(a);
  return set;
}

TargetSet combine(const std::vector<const TargetSet*>& parts,
                  const std::string& name) {
  TargetSet set;
  set.name = name;
  netbase::FlatSet<Ipv6Addr, Ipv6AddrHash> seen;
  for (const auto* part : parts)
    for (const auto& a : part->addrs)
      if (seen.insert(a).second) set.addrs.push_back(a);
  return set;
}

}  // namespace beholder6::target
