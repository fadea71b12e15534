#include "common/serialize.hpp"

#include "common/error.hpp"

namespace veil::common {

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

void Writer::fixed(std::uint64_t v, std::size_t width) {
  std::uint8_t* out = extend(width).data();
  for (std::size_t i = 0; i < width; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void Writer::varint(std::uint64_t v) {
  std::uint8_t tmp[10];
  std::size_t n = 0;
  while (v >= 0x80) {
    tmp[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  tmp[n++] = static_cast<std::uint8_t>(v);
  buf_.insert(buf_.end(), tmp, tmp + n);
}

void Writer::bytes(BytesView v) {
  varint(v.size());
  raw(v);
}

void Writer::str(std::string_view v) {
  varint(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

std::span<std::uint8_t> Writer::extend(std::size_t n) {
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  return std::span<std::uint8_t>(buf_.data() + at, n);
}

void Reader::need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    throw Error("serialize: truncated input");
  }
}

std::uint64_t Reader::fixed(std::size_t width) {
  need(width);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += width;
  return v;
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() { return static_cast<std::uint16_t>(fixed(2)); }

std::uint32_t Reader::u32() { return static_cast<std::uint32_t>(fixed(4)); }

std::uint64_t Reader::u64() { return fixed(8); }

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    std::uint8_t b = data_[pos_++];
    if (shift >= 63 && (b & 0x7f) > 1) {
      throw Error("serialize: varint overflow");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

bool Reader::boolean() {
  std::uint8_t v = u8();
  if (v > 1) throw Error("serialize: malformed boolean");
  return v == 1;
}

BytesView Reader::bytes_view() { return raw_view(varint()); }

BytesView Reader::raw_view(std::size_t n) {
  need(n);
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Bytes Reader::bytes() {
  const BytesView v = bytes_view();
  return Bytes(v.begin(), v.end());
}

std::string Reader::str() {
  const BytesView v = bytes_view();
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

Bytes Reader::raw(std::size_t n) {
  const BytesView v = raw_view(n);
  return Bytes(v.begin(), v.end());
}

}  // namespace veil::common
