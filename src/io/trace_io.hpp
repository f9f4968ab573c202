// io/trace_io.hpp — campaign output serialization.
//
// The paper releases its prober output and discovered-topology datasets.
// We provide two interchangeable formats:
//
//   text   — one reply per line, yarrp-flavoured, diff-friendly:
//            <target> <ttl> <responder> <type> <code> <rtt_us> <instance>
//   binary — "B6TR" framed fixed-width records, for large campaigns.
//
// Readers reproduce the wire::DecodedReply stream, so a persisted campaign
// can be replayed into a topology::TraceCollector or analysis pass exactly
// as if it were live.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "wire/probe.hpp"

namespace beholder6::io {

/// Minimal persisted form of one reply.
struct TraceRecord {
  Ipv6Addr target;
  Ipv6Addr responder;
  std::uint8_t ttl = 0;
  std::uint8_t type = 0;
  std::uint8_t code = 0;
  std::uint8_t instance = 0;
  std::uint32_t rtt_us = 0;

  [[nodiscard]] static TraceRecord from_reply(const wire::DecodedReply& r) {
    TraceRecord rec;
    rec.target = r.probe.target;
    rec.responder = r.responder;
    rec.ttl = r.probe.ttl;
    rec.type = static_cast<std::uint8_t>(r.type);
    rec.code = r.code;
    rec.instance = r.probe.instance;
    rec.rtt_us = r.rtt_us;
    return rec;
  }

  [[nodiscard]] wire::DecodedReply to_reply() const {
    wire::DecodedReply r;
    r.probe.target = target;
    r.responder = responder;
    r.probe.ttl = ttl;
    r.type = static_cast<wire::Icmp6Type>(type);
    r.code = code;
    r.probe.instance = instance;
    r.rtt_us = rtt_us;
    return r;
  }

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

// ---- Text format ----

/// Serialize one record as a single line (no trailing newline).
[[nodiscard]] std::string to_text_line(const TraceRecord& rec);

/// Parse one line: exactly seven whitespace-separated fields, the numeric
/// ones plain decimal digits within their field's range. Nullopt on
/// anything else.
[[nodiscard]] std::optional<TraceRecord> from_text_line(const std::string& line);

/// Stream writer; one line per record, '#' comment header. Any failed
/// write, the header's included, throws std::ios_base::failure: a record
/// counts as written only once the stream has taken it.
class TextWriter {
 public:
  explicit TextWriter(std::ostream& out);
  void write(const TraceRecord& rec);
  [[nodiscard]] std::size_t written() const { return count_; }

 private:
  std::ostream& out_;
  std::size_t count_ = 0;
};

/// Read every record from a text stream, skipping comments and blanks.
/// Malformed lines are counted, not fatal.
struct TextReadResult {
  std::vector<TraceRecord> records;
  std::size_t malformed = 0;
};
[[nodiscard]] TextReadResult read_text(std::istream& in);

// ---- Binary format ----

inline constexpr std::uint32_t kBinaryMagic = 0x42365452;  // "B6TR"
inline constexpr std::uint16_t kBinaryVersion = 1;

/// Stream framing sentinel: a binary header whose count field holds this
/// value declares an *open-ended* stream — records follow until EOF. A
/// long-running campaign cannot know its final record count up front, and
/// a pipe cannot seek back to patch the header, so incremental writers use
/// this framing; read_binary accepts both.
inline constexpr std::uint32_t kBinaryStreamCount = 0xffffffffu;

/// Read a whole campaign; nullopt on bad magic/version/truncation. Accepts
/// both the kBinaryStreamCount open-ended framing, which is all this
/// library writes, and a counted framing whose header states the record
/// count, as a trace from elsewhere may.
[[nodiscard]] std::optional<std::vector<TraceRecord>> read_binary(std::istream& in);

/// Incremental binary writer: header up front (open-ended framing), one
/// fixed-width record per write(), nothing buffered beyond the ostream's
/// own buffer — an interrupted campaign keeps every record already
/// written, which is the contract that lets the campaign reactor stream
/// results per tenant instead of delivering them at exhaustion. Fails
/// like TextWriter: a failed write throws std::ios_base::failure.
class BinaryStreamWriter {
 public:
  explicit BinaryStreamWriter(std::ostream& out);
  void write(const TraceRecord& rec);

 private:
  std::ostream& out_;
};

/// ResponseSink-shaped adapter over either incremental writer: converts
/// each wire::DecodedReply to a TraceRecord and appends it to the stream
/// immediately, in delivery order. Callable where a
/// campaign::ResponseSink is expected (this header cannot name that type —
/// io sits below campaign in the layering — but the call signature is the
/// contract). The usual sink rules apply: it observes and records, and
/// must not inject into the campaign's own network. A failed stream throws
/// from the call, so the error surfaces from the campaign driving the sink
/// (Pacer::step, and through it every campaign front end) instead of
/// dropping records silently.
class StreamingTraceSink {
 public:
  enum class Format : std::uint8_t { kText, kBinary };

  StreamingTraceSink(std::ostream& out, Format format);
  void operator()(const wire::DecodedReply& reply);

 private:
  std::optional<TextWriter> text_;
  std::optional<BinaryStreamWriter> binary_;
};

}  // namespace beholder6::io
