// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//
// HKDF derives per-purpose keys (channel keys, PDC dissemination keys,
// TEE sealing keys) from shared secrets established via the PKI layer.
#pragma once

#include <string_view>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace veil::crypto {

/// HMAC-SHA256 under one key (any length). The key's inner and outer
/// SHA-256 states, after their pad blocks, are computed once, so each
/// mac() hashes only `data` and the two finishing blocks.
class HmacSha256 {
 public:
  explicit HmacSha256(common::BytesView key);
  Digest mac(common::BytesView data) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// HMAC-SHA256 over `data` with `key` (any key length).
Digest hmac_sha256(common::BytesView key, common::BytesView data);

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Digest hkdf_extract(common::BytesView salt, common::BytesView ikm);

/// HKDF-Expand: derive `length` bytes (<= 255*32) bound to `info`.
common::Bytes hkdf_expand(const Digest& prk, std::string_view info,
                          std::size_t length);

/// Extract-then-expand convenience.
common::Bytes hkdf(common::BytesView salt, common::BytesView ikm,
                   std::string_view info, std::size_t length);

}  // namespace veil::crypto
