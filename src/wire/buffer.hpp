// wire/buffer.hpp — big-endian byte buffer reader/writer for wire codecs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace beholder6::wire {

/// Appends big-endian fields to a growable byte vector.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void bytes(std::span<const std::uint8_t> b) { out_.insert(out_.end(), b.begin(), b.end()); }

  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Consumes big-endian fields from a byte span; all reads are bounds-checked
/// and the reader latches into a failed state on underrun.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!ensure(2)) return 0;
    const auto v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const auto hi = u16(), lo = u16();
    return static_cast<std::uint32_t>(hi) << 16 | lo;
  }
  /// Read exactly n bytes; returns an empty span (and fails) on underrun.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!ensure(n)) return {};
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  /// All bytes not yet consumed (does not advance).
  [[nodiscard]] std::span<const std::uint8_t> rest() const { return data_.subspan(pos_); }

 private:
  bool ensure(std::size_t n) {
    if (!ok_ || remaining() < n) { ok_ = false; return false; }
    return true;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace beholder6::wire
