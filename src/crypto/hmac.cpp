#include "crypto/hmac.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace veil::crypto {

HmacSha256::HmacSha256(common::BytesView key) {
  constexpr std::size_t kBlockSize = 64;

  std::array<std::uint8_t, kBlockSize> k{};
  if (key.size() > kBlockSize) {
    const Digest kd = sha256(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kBlockSize> ipad, opad;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.update(ipad);
  outer_.update(opad);
}

Digest HmacSha256::mac(common::BytesView data) const {
  const Digest inner = Sha256(inner_).update(data).finalize();
  return Sha256(outer_).update(inner).finalize();
}

Digest hmac_sha256(common::BytesView key, common::BytesView data) {
  return HmacSha256(key).mac(data);
}

Digest hkdf_extract(common::BytesView salt, common::BytesView ikm) {
  if (salt.empty()) {
    const common::Bytes zero(kSha256DigestSize, 0);
    return hmac_sha256(zero, ikm);
  }
  return hmac_sha256(salt, ikm);
}

common::Bytes hkdf_expand(const Digest& prk, std::string_view info,
                          std::size_t length) {
  if (length > 255 * kSha256DigestSize) {
    throw common::CryptoError("hkdf_expand: length too large");
  }
  const HmacSha256 keyed(prk);
  common::Bytes out;
  out.reserve(length);
  common::Bytes t;
  std::uint8_t counter = 1;
  while (out.size() < length) {
    common::Bytes block = t;
    block.insert(block.end(), info.begin(), info.end());
    block.push_back(counter++);
    const Digest d = keyed.mac(block);
    t.assign(d.begin(), d.end());
    const std::size_t take = std::min(t.size(), length - out.size());
    out.insert(out.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return out;
}

common::Bytes hkdf(common::BytesView salt, common::BytesView ikm,
                   std::string_view info, std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

}  // namespace veil::crypto
