// simnet/token_bucket.hpp — ICMPv6 error rate limiter (RFC 4443 §2.4(f)).
//
// Routers MUST rate-limit the ICMPv6 error messages they originate; the
// paper's central premise is that this limiting, combined with traceroute's
// bursty per-TTL probing, starves sequential probers while randomized
// probing stays under every router's refill rate. We model the canonical
// token-bucket implementation: capacity `burst`, refilled continuously at
// `rate` tokens per second of virtual time.
//
// The bucket holds state only: its balance and the time of its last
// refill, 16 bytes. Its owner supplies the budget (rate and burst) on each
// call and derives it rather than storing it: a router's budget is a
// function of its id and the rate scale (Network::budget_of), a tenant's
// service throttle comes from its CampaignSpec. The owner must pass one
// budget for the whole life of a balance; a new budget needs a new bucket.
#pragma once

#include <cstdint>

namespace beholder6::simnet {

/// A token bucket over a microsecond virtual clock.
class TokenBucket {
 public:
  /// What one bucket may spend: tokens per second, and the capacity.
  struct Budget {
    double rate_per_s;
    double burst;
  };
  /// Effectively unlimited; the default bucket starts full under it.
  static constexpr Budget kUnlimited{1e12, 1e12};

  TokenBucket() = default;

  /// A full bucket of a budget with capacity `burst`.
  explicit TokenBucket(double burst) : tokens_(burst) {}

  /// Try to take one token at virtual time `now_us`. Returns true (and
  /// consumes) if a token is available after refill.
  bool try_consume(const Budget& b, std::uint64_t now_us) {
    refill(b, now_us);
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return true;
    }
    return false;
  }

  /// Unconditionally take `n` tokens at virtual time `now_us`, letting the
  /// balance go negative (token debt). Debt models work that has already
  /// been committed — a whole burst window emitted at one send instant —
  /// whose cost must still be paid back before ready_at_us() reopens the
  /// bucket. The campaign reactor's per-tenant service buckets are the
  /// client: they debit one token per probe after a scheduling step emits,
  /// then park the tenant until the debt clears.
  void debit(const Budget& b, double n, std::uint64_t now_us) {
    refill(b, now_us);
    tokens_ -= n;
  }

  /// Earliest virtual time at or after `now_us` when one whole token will
  /// be available. Pure scheduling arithmetic — nothing is consumed — so a
  /// scheduler can sleep a throttled consumer until exactly this instant
  /// instead of polling try_consume(). Requires a positive rate when the
  /// bucket is in deficit. Deterministic: a pure function of (state,
  /// budget, now_us), and like refill() it never rewinds — a `now_us`
  /// before the last refill just reads the current balance.
  [[nodiscard]] std::uint64_t ready_at_us(const Budget& b, std::uint64_t now_us) {
    refill(b, now_us);
    if (tokens_ >= 1.0) return now_us;
    // Ceiling via truncate-plus-one: the slot must not land a fraction of a
    // microsecond early, and an exact integral deficit waiting one extra
    // microsecond costs nothing (the refill covers it either way).
    const double deficit_us = (1.0 - tokens_) * 1e6 / b.rate_per_s;
    return now_us + static_cast<std::uint64_t>(deficit_us) + 1;
  }

 private:
  void refill(const Budget& b, std::uint64_t now_us) {
    if (now_us <= last_us_) return;
    tokens_ += b.rate_per_s * static_cast<double>(now_us - last_us_) / 1e6;
    if (tokens_ > b.burst) tokens_ = b.burst;
    last_us_ = now_us;
  }

  double tokens_ = kUnlimited.burst;
  std::uint64_t last_us_ = 0;
};

}  // namespace beholder6::simnet
