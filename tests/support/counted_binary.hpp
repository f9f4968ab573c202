// tests/support/counted_binary.hpp — trace records in the counted binary
// framing. The library writes only the open-ended framing
// (io::BinaryStreamWriter); io::read_binary also accepts a header that
// states its record count, as a file from elsewhere may, and the tests
// feed it such files from here.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "io/trace_io.hpp"

namespace beholder6::test_support {

/// `records` as a counted binary trace: the open-ended stream's bytes with
/// the header's big-endian count field (bytes 8..11) set.
inline std::string counted_binary(const std::vector<io::TraceRecord>& records) {
  std::ostringstream out;
  io::BinaryStreamWriter writer{out};
  for (const auto& rec : records) writer.write(rec);
  std::string bytes = out.str();
  const auto n = static_cast<std::uint32_t>(records.size());
  for (int i = 0; i < 4; ++i) bytes[8 + i] = static_cast<char>(n >> (24 - 8 * i));
  return bytes;
}

}  // namespace beholder6::test_support
