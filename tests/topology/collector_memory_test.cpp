// The collector's heap follows what it holds. Fed a campaign-shaped reply
// stream, it keeps fewer live bytes per reply than one hop vector per
// trace did, both before the first read and after it, when the traces
// are built and nothing else may remain of the replies. The check
// replaces the global operator new/delete with versions that count live
// bytes, which is why it is a test binary of its own.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "topology/collector.hpp"

namespace {
std::atomic<std::int64_t> g_live_bytes{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc{};
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

// GCC pairs the replaced operator new with the free() it sees behind it
// and warns about the mismatch; malloc-backed new with free-backed delete
// is the point of the hook.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) { return counted(std::malloc(n)); }
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

// Over-aligned forms: the huge-page tables (netbase::HugePageAllocator)
// allocate through these.
void* operator new(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  return counted(std::aligned_alloc(a, (n + a - 1) & ~(a - 1)));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace beholder6::topology {
namespace {

std::int64_t live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }

constexpr std::uint64_t kTargets = 8000;
constexpr std::uint64_t kTtls = 15;
constexpr std::uint64_t kReplies = kTargets * kTtls;

/// Reply i of a Table 7-shaped campaign: kTargets traces of kTtls hops,
/// delivered in a fixed pseudo-random order over (target, TTL). Routers
/// near the vantage are shared by many traces and deep ones by few; two
/// traces in three end in a reply from the target itself.
wire::DecodedReply campaign_reply(std::uint64_t i) {
  const std::uint64_t slot = (i * 7919) % kReplies;  // 7919 is prime to kReplies
  const std::uint64_t t = slot / kTtls;
  const auto ttl = static_cast<std::uint8_t>(1 + slot % kTtls);
  wire::DecodedReply r;
  r.probe.target = Ipv6Addr::from_halves(0x2001'0db8'0000'0000ULL + t, 1);
  r.probe.ttl = ttl;
  r.rtt_us = static_cast<std::uint32_t>(500 + 37 * ttl + t % 97);
  if (ttl == kTtls && t % 3 != 0) {
    r.responder = r.probe.target;
    r.type = wire::Icmp6Type::kEchoReply;
  } else {
    // A hop at depth ttl is shared by about 2^(14 - ttl) traces.
    const std::uint64_t router = t >> (ttl < 14 ? 14 - ttl : 0);
    r.responder = Ipv6Addr::from_halves(0x2001'0db8'ff00'0000ULL + ttl, router + 1);
  }
  return r;
}

TEST(CollectorMemoryTest, LiveBytesPerReplyBeforeAndAfterTheFirstRead) {
  const auto base = live_bytes();
  TraceCollector c;
  for (std::uint64_t i = 0; i < kReplies; ++i) c.on_reply(campaign_reply(i), i + 1);
  const double fed = static_cast<double>(live_bytes() - base) / kReplies;

  ASSERT_EQ(c.traces().size(), kTargets);
  (void)c.responders();
  (void)c.reached_fraction();
  const double read = static_cast<double>(live_bytes() - base) / kReplies;
  std::printf("live bytes per reply: %.1f fed, %.1f after the first read\n", fed, read);

  std::uint64_t hops = 0;
  for (const auto& [target, tr] : c.traces()) hops += tr.hops.size();
  EXPECT_EQ(hops, kReplies);
  EXPECT_NEAR(c.reached_fraction(), 2.0 / 3.0, 1e-3);
  // A collector that reassembled each reply into one hop vector per trace
  // held 66.6 bytes per reply here, fed or read. The log holds 46.1 until
  // the first read and the built traces 45.1 after it; keeping the log
  // beside them would double that.
  EXPECT_LT(fed, 56.0);
  EXPECT_LT(read, 56.0);
}

}  // namespace
}  // namespace beholder6::topology
