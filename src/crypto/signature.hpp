// Schnorr signatures over a prime-order subgroup.
//
// The framework's digital-signature scheme: identity certificates,
// transaction endorsements, block signatures, notary attestations and TEE
// quotes are all Schnorr signatures. Nonces are derived deterministically
// (RFC 6979 style, via HMAC) so signing needs no RNG and never reuses a
// nonce.
#pragma once

#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "crypto/group.hpp"
#include "crypto/hmac.hpp"

namespace veil::crypto {

struct PublicKey {
  BigInt y;  // y = g^x mod p

  /// Size of encode()'s output; encode_to appends exactly that many bytes.
  std::size_t encoded_size() const;
  void encode_to(common::Writer& w) const;
  common::Bytes encode() const;
  /// Accepts only the canonical encoding: no trailing bytes, no leading
  /// zero byte in the integer, minimal length prefix. Throws otherwise.
  static PublicKey decode(common::BytesView data);

  /// Stable fingerprint (hex SHA-256 of the encoding) used as a key id.
  std::string fingerprint() const;

  bool operator==(const PublicKey&) const = default;
};

struct Signature {
  BigInt challenge;   // e = H(R || y || m)
  BigInt response;    // s = k - x*e mod q
  // R = g^k, carried on the wire. Verification requires both the hash
  // binding e == H(R || y || m) and the group equation g^s * y^e == R.
  BigInt commitment;

  std::size_t encoded_size() const;
  void encode_to(common::Writer& w) const;
  common::Bytes encode() const;
  /// Canonical encodings only, as for PublicKey::decode.
  static Signature decode(common::BytesView data);

  bool operator==(const Signature&) const = default;
};

class KeyPair {
 public:
  /// Generate a fresh keypair in `group`.
  static KeyPair generate(const Group& group, common::Rng& rng);

  /// Deterministic keypair from a secret seed (used for one-time keys
  /// derived from a master secret).
  static KeyPair from_secret(const Group& group, const BigInt& secret);

  const PublicKey& public_key() const { return public_key_; }
  const BigInt& secret() const { return secret_; }
  const Group& group() const { return *group_; }

  Signature sign(common::BytesView message) const;

 private:
  KeyPair(const Group& group, BigInt secret);

  const Group* group_;
  BigInt secret_;
  PublicKey public_key_;
  // The secret as a scalar mod q, and the nonce HMAC keyed with its
  // minimal big-endian bytes; both fixed for the key's life.
  ScalarField::Scalar x_;
  HmacSha256 nonce_mac_;
};

/// Verify `sig` on `message` under `pub` in `group`.
bool verify(const Group& group, const PublicKey& pub,
            common::BytesView message, const Signature& sig);

/// The Fiat-Shamir challenge e = H(R || y || m) used by sign/verify.
/// Exposed so blind-issuance protocols (pki/idemix) can compute the same
/// challenge over a blinded commitment.
BigInt schnorr_challenge(const Group& group, const BigInt& commitment,
                         const BigInt& y, common::BytesView message);

}  // namespace veil::crypto
