// Byte-buffer utilities shared by every veil module.
//
// `Bytes` is the universal wire/value type of the framework: crypto
// primitives, ledger encodings, and network messages all traffic in it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace veil::common {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Encode `data` as lowercase hex.
std::string to_hex(BytesView data);

/// Decode a hex string (upper or lower case). Throws std::invalid_argument
/// on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Copy a UTF-8/ASCII string into a byte buffer.
Bytes to_bytes(std::string_view s);

/// Interpret a byte buffer as a string (no validation).
std::string to_string(BytesView data);

/// Constant-time equality: runtime independent of where buffers differ.
/// Length mismatch returns false immediately (lengths are not secret here).
bool ct_equal(BytesView a, BytesView b);

/// A view of each buffer, valid while `buffers` and its elements are.
std::vector<BytesView> views_of(const std::vector<Bytes>& buffers);

/// Concatenate buffers.
Bytes concat(BytesView a, BytesView b);
Bytes concat(BytesView a, BytesView b, BytesView c);

/// XOR two equal-length buffers. Throws std::invalid_argument on mismatch.
Bytes xor_bytes(BytesView a, BytesView b);

}  // namespace veil::common
