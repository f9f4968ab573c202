#include "io/trace_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <ios>
#include <optional>
#include <string_view>

namespace beholder6::io {

namespace {

/// Streaming writers never count a record the stream did not take: any
/// failed write, header included, throws instead.
void check_written(const std::ostream& out) {
  if (!out) throw std::ios_base::failure{"trace stream write failed"};
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// A decimal field of digits only, at most `max`.
std::optional<std::uint64_t> parse_decimal(std::string_view s,
                                           std::uint64_t max) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size() || v > max)
    return std::nullopt;
  return v;
}

}  // namespace

std::string to_text_line(const TraceRecord& rec) {
  std::string out;
  out.reserve(96);
  out += rec.target.to_string();
  out += ' ';
  out += std::to_string(rec.ttl);
  out += ' ';
  out += rec.responder.to_string();
  out += ' ';
  out += std::to_string(rec.type);
  out += ' ';
  out += std::to_string(rec.code);
  out += ' ';
  out += std::to_string(rec.rtt_us);
  out += ' ';
  out += std::to_string(rec.instance);
  return out;
}

std::optional<TraceRecord> from_text_line(const std::string& line) {
  // Split into exactly seven fields first: stream extraction would read
  // "213ffff::1" as ttl 213 followed by an address, and would ignore
  // trailing junk, accepting mangled lines.
  std::array<std::string_view, 7> f;
  std::size_t n = 0;
  const std::string_view text{line};
  for (std::size_t i = 0; i < text.size();) {
    if (is_space(text[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (n == f.size()) return std::nullopt;
    f[n++] = text.substr(start, i - start);
  }
  if (n != f.size()) return std::nullopt;
  const auto t = Ipv6Addr::parse(f[0]);
  const auto ttl = parse_decimal(f[1], 255);
  const auto r = Ipv6Addr::parse(f[2]);
  const auto type = parse_decimal(f[3], 255);
  const auto code = parse_decimal(f[4], 255);
  const auto rtt = parse_decimal(f[5], 0xffffffffULL);
  const auto instance = parse_decimal(f[6], 255);
  if (!t || !ttl || !r || !type || !code || !rtt || !instance)
    return std::nullopt;
  TraceRecord rec;
  rec.target = *t;
  rec.responder = *r;
  rec.ttl = static_cast<std::uint8_t>(*ttl);
  rec.type = static_cast<std::uint8_t>(*type);
  rec.code = static_cast<std::uint8_t>(*code);
  rec.instance = static_cast<std::uint8_t>(*instance);
  rec.rtt_us = static_cast<std::uint32_t>(*rtt);
  return rec;
}

TextWriter::TextWriter(std::ostream& out) : out_(out) {
  out_ << "# beholder6 trace: target ttl responder type code rtt_us instance\n";
  check_written(out_);
}

void TextWriter::write(const TraceRecord& rec) {
  out_ << to_text_line(rec) << '\n';
  check_written(out_);
  ++count_;
}

TextReadResult read_text(std::istream& in) {
  TextReadResult result;
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    if (auto rec = from_text_line(line))
      result.records.push_back(*rec);
    else
      ++result.malformed;
  }
  return result;
}

namespace {

constexpr std::size_t kRecordSize = 16 + 16 + 4 + 4;  // addrs + fields + rtt

void put_u32(std::ostream& out, std::uint32_t v) {
  const std::array<char, 4> b{static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                              static_cast<char>(v >> 8), static_cast<char>(v)};
  out.write(b.data(), 4);
}

std::optional<std::uint32_t> get_u32(std::istream& in) {
  std::array<char, 4> b{};
  if (!in.read(b.data(), 4)) return std::nullopt;
  return (static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[0])) << 24) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[2])) << 8) |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[3]));
}

void put_record(std::ostream& out, const TraceRecord& rec) {
  out.write(reinterpret_cast<const char*>(rec.target.bytes().data()), 16);
  out.write(reinterpret_cast<const char*>(rec.responder.bytes().data()), 16);
  const std::array<char, 4> fields{static_cast<char>(rec.ttl),
                                   static_cast<char>(rec.type),
                                   static_cast<char>(rec.code),
                                   static_cast<char>(rec.instance)};
  out.write(fields.data(), 4);
  put_u32(out, rec.rtt_us);
}

std::optional<TraceRecord> get_record(std::istream& in) {
  std::array<char, kRecordSize - 4> buf{};
  if (!in.read(buf.data(), buf.size())) return std::nullopt;
  TraceRecord rec;
  std::array<std::uint8_t, 16> a{};
  std::copy_n(buf.begin(), 16, reinterpret_cast<char*>(a.data()));
  rec.target = Ipv6Addr{a};
  std::copy_n(buf.begin() + 16, 16, reinterpret_cast<char*>(a.data()));
  rec.responder = Ipv6Addr{a};
  rec.ttl = static_cast<std::uint8_t>(buf[32]);
  rec.type = static_cast<std::uint8_t>(buf[33]);
  rec.code = static_cast<std::uint8_t>(buf[34]);
  rec.instance = static_cast<std::uint8_t>(buf[35]);
  const auto rtt = get_u32(in);
  if (!rtt) return std::nullopt;
  rec.rtt_us = *rtt;
  return rec;
}

}  // namespace

std::optional<std::vector<TraceRecord>> read_binary(std::istream& in) {
  const auto magic = get_u32(in);
  const auto version = get_u32(in);
  const auto count = get_u32(in);
  if (!magic || *magic != kBinaryMagic) return std::nullopt;
  if (!version || *version != kBinaryVersion) return std::nullopt;
  if (!count) return std::nullopt;

  std::vector<TraceRecord> records;
  if (*count == kBinaryStreamCount) {
    // Open-ended stream framing: records until EOF. A clean EOF at a
    // record boundary ends the stream; a partial record is truncation.
    while (in.peek() != std::istream::traits_type::eof()) {
      const auto rec = get_record(in);
      if (!rec) return std::nullopt;
      records.push_back(*rec);
    }
    return records;
  }
  // The count is unchecked input (a bare header can claim ~4G records):
  // reserve a modest prefix at most; records actually read grow the rest.
  constexpr std::uint32_t kMaxReserve = 1u << 16;
  records.reserve(std::min(*count, kMaxReserve));
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto rec = get_record(in);
    if (!rec) return std::nullopt;
    records.push_back(*rec);
  }
  return records;
}

BinaryStreamWriter::BinaryStreamWriter(std::ostream& out) : out_(out) {
  put_u32(out_, kBinaryMagic);
  put_u32(out_, kBinaryVersion);
  put_u32(out_, kBinaryStreamCount);
  check_written(out_);
}

void BinaryStreamWriter::write(const TraceRecord& rec) {
  put_record(out_, rec);
  check_written(out_);
}

StreamingTraceSink::StreamingTraceSink(std::ostream& out, Format format) {
  if (format == Format::kText)
    text_.emplace(out);
  else
    binary_.emplace(out);
}

void StreamingTraceSink::operator()(const wire::DecodedReply& reply) {
  const auto rec = TraceRecord::from_reply(reply);
  if (text_)
    text_->write(rec);
  else
    binary_->write(rec);
}

}  // namespace beholder6::io
