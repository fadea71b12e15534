// Canonical binary serialization.
//
// Every signed or hashed structure in the framework (transactions, blocks,
// certificates, attestation quotes) is encoded with Writer/Reader so that
// two parties always produce byte-identical encodings. Integers are
// little-endian fixed width; variable data is length-prefixed with a
// varint.
//
// A caller that knows its encoded size (see varint_size/prefixed_size)
// constructs the Writer with that capacity and fills it with a single
// allocation. Reader hands out views into the buffer it reads:
// a view from Reader::bytes_view()/raw_view() lives only as long as the
// source buffer, so a decoder copies what it keeps (bytes()/str() do) and
// never stores a view past the buffer's lifetime.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace veil::common {

/// Bytes Writer::varint(v) writes (1 to 10).
std::size_t varint_size(std::uint64_t v);
/// Bytes a length-prefixed field of `n` bytes takes (Writer::bytes/str).
inline std::size_t prefixed_size(std::size_t n) { return varint_size(n) + n; }

class Writer {
 public:
  Writer() = default;
  /// Reserve `capacity` bytes up front: a caller that passes the exact
  /// encoded size writes with one allocation.
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { fixed(v, 2); }
  void u32(std::uint32_t v) { fixed(v, 4); }
  void u64(std::uint64_t v) { fixed(v, 8); }
  void varint(std::uint64_t v);
  void boolean(bool v) { buf_.push_back(v ? 1 : 0); }
  /// Length-prefixed byte string.
  void bytes(BytesView v);
  /// Length-prefixed UTF-8 string.
  void str(std::string_view v);
  /// Raw bytes, no length prefix (caller manages framing).
  void raw(BytesView v) { buf_.insert(buf_.end(), v.begin(), v.end()); }
  /// Append `n` bytes and return them for the caller to fill in place.
  std::span<std::uint8_t> extend(std::size_t n);

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  void fixed(std::uint64_t v, std::size_t width);

  Bytes buf_;
};

/// Throws veil::common::Error-derived SerializeError on truncated or
/// malformed input; never reads past the end of the buffer.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  bool boolean();
  /// The next length-prefixed field, as a view into the source buffer.
  BytesView bytes_view();
  /// The next `n` bytes, as a view into the source buffer.
  BytesView raw_view(std::size_t n);
  /// Owning copies of bytes_view()/raw_view().
  Bytes bytes();
  std::string str();
  Bytes raw(std::size_t n);

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const;
  std::uint64_t fixed(std::size_t width);

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace veil::common
