#include "crypto/signature.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "crypto/hmac.hpp"

namespace veil::crypto {

BigInt schnorr_challenge(const Group& group, const BigInt& commitment,
                         const BigInt& y, common::BytesView message) {
  common::Writer w;
  w.bytes(commitment.to_bytes_be());
  w.bytes(y.to_bytes_be());
  w.bytes(message);
  return group.hash_to_scalar(w.data());
}

common::Bytes PublicKey::encode() const {
  common::Writer w;
  w.bytes(y.to_bytes_be());
  return w.take();
}

PublicKey PublicKey::decode(common::BytesView data) {
  common::Reader r(data);
  return PublicKey{BigInt::from_bytes_be(r.bytes())};
}

std::string PublicKey::fingerprint() const {
  return digest_hex(sha256(encode())).substr(0, 16);
}

common::Bytes Signature::encode() const {
  common::Writer w;
  w.bytes(challenge.to_bytes_be());
  w.bytes(response.to_bytes_be());
  w.bytes(commitment.to_bytes_be());
  return w.take();
}

Signature Signature::decode(common::BytesView data) {
  common::Reader r(data);
  Signature sig;
  sig.challenge = BigInt::from_bytes_be(r.bytes());
  sig.response = BigInt::from_bytes_be(r.bytes());
  sig.commitment = BigInt::from_bytes_be(r.bytes());
  return sig;
}

KeyPair::KeyPair(const Group& group, BigInt secret)
    : group_(&group), secret_(std::move(secret)) {
  public_key_.y = group.pow_g(secret_);
}

KeyPair KeyPair::generate(const Group& group, common::Rng& rng) {
  return KeyPair(group, group.random_scalar(rng));
}

KeyPair KeyPair::from_secret(const Group& group, const BigInt& secret) {
  const BigInt reduced = secret % group.q();
  if (reduced.is_zero()) {
    throw common::CryptoError("KeyPair: secret reduces to zero");
  }
  return KeyPair(group, reduced);
}

Signature KeyPair::sign(common::BytesView message) const {
  const Group& group = *group_;
  // Deterministic nonce: k = HMAC(secret, message) reduced mod q, nonzero.
  common::Bytes seed = secret_.to_bytes_be();
  Digest mac = hmac_sha256(seed, message);
  BigInt k = BigInt::from_bytes_be(digest_bytes(mac)) % group.q();
  while (k.is_zero()) {
    mac = hmac_sha256(seed, digest_bytes(mac));
    k = BigInt::from_bytes_be(digest_bytes(mac)) % group.q();
  }

  const BigInt commitment = group.pow_g(k);  // R = g^k
  const BigInt e =
      schnorr_challenge(group, commitment, public_key_.y, message);
  // s = k - x*e mod q.
  const BigInt xe = (secret_ * e) % group.q();
  const BigInt s = (k + group.q() - xe) % group.q();
  return Signature{e, s, commitment};
}

bool verify(const Group& group, const PublicKey& pub,
            common::BytesView message, const Signature& sig) {
  if (sig.challenge >= group.q() || sig.response >= group.q()) return false;
  if (!group.check_key(pub.y).member) return false;
  // The recomputed commitment R' = g^s * y^e must equal the transmitted
  // one AND hash to the transmitted challenge. The equation forces R into
  // the order-q subgroup (its right-hand side is a product of subgroup
  // elements), so no separate membership check on R is needed.
  const BigInt r_prime =
      group.mul(group.pow_g(sig.response), group.pow(pub.y, sig.challenge));
  if (sig.commitment != r_prime) return false;
  const BigInt e = schnorr_challenge(group, r_prime, pub.y, message);
  return e == sig.challenge;
}

}  // namespace veil::crypto
