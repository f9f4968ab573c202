// simnet/packet_pool.hpp — reusable packet buffers for the zero-allocation
// inject fast path.
//
// The steady-state cost model of the simnet is one probe in, zero-or-more
// replies out, millions of times. Building every reply in a fresh
// std::vector (and returning them in a fresh std::vector of vectors) puts
// 3-5 heap allocations on that path. A PacketPool instead hands out slots
// whose heap storage persists across clear(): after a short warm-up every
// acquire() is a size reset into capacity that already exists, so the
// steady state allocates nothing (bench/hotpath.cpp counts this).
//
// Views returned from the pool are invalidated by the next acquire()/
// clear() — exactly the lifetime Network::inject_view documents.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netbase/attr.hpp"
#include "netbase/dcheck.hpp"
#include "netbase/prefetch.hpp"

namespace beholder6::simnet {

using Packet = std::vector<std::uint8_t>;

class PacketPool {
 public:
  /// A cleared packet slot to build into; capacity from earlier use is
  /// retained. The reference is stable until the next acquire() or clear().
  Packet& acquire() {
    if (live_ == slots_.size()) grow_slots();
    Packet& p = slots_[live_++];
    p.clear();
    return p;
  }

  /// Drop the most recently acquired slot (e.g. a reply that turned out to
  /// need fragmentation and is re-emitted as fragments).
  void drop_last() {
    B6_DCHECK(live_ > 0, "PacketPool::drop_last with no live packet — the "
                         "acquire/drop pairing on the inject path is broken");
    --live_;
  }

  /// The packets built since the last clear(), in acquire order.
  [[nodiscard]] std::span<const Packet> view() const {
    return {slots_.data(), live_};
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Forget the live packets but keep every slot's storage for reuse.
  void clear() { live_ = 0; }

  /// Memory-latency hint: start pulling the slot headers the next
  /// acquire()s rebuild into cache. The pool holds as many slots as the
  /// most replies one probe ever produced, so this is a line or two.
  /// Read-only and result-neutral.
  void prefetch() const {
    netbase::prefetch_range(slots_.data(), slots_.size() * sizeof(Packet));
  }

 private:
  // Cold gate: the warm-up-only allocating half of acquire(), outlined
  // (B6_COLDPATH) so tools/check_noalloc.py sees pool growth as a named
  // allowlisted node instead of an allocation inside acquire() itself.
  B6_COLDPATH void grow_slots() { slots_.emplace_back(); }

  std::vector<Packet> slots_;
  std::size_t live_ = 0;
};

}  // namespace beholder6::simnet
