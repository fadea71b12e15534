#include "crypto/signature.hpp"

#include "common/error.hpp"
#include "crypto/hmac.hpp"

namespace veil::crypto {

namespace {

// An integer field: its minimal big-endian bytes, length-prefixed.
std::size_t int_field_size(const BigInt& v) {
  return common::prefixed_size(v.byte_length());
}

void put_int(common::Writer& w, const BigInt& v) {
  const std::size_t len = v.byte_length();
  w.varint(len);
  v.write_be(w.extend(len));
}

// Reads what put_int wrote; a leading zero byte is never written, so it
// is refused.
BigInt get_int(common::Reader& r) {
  const common::BytesView v = r.bytes_view();
  if (!v.empty() && v[0] == 0) {
    throw common::CryptoError("integer field has a leading zero byte");
  }
  return BigInt::from_bytes_be(v);
}

// Refuses trailing bytes and, by comparing the canonical size, any
// non-minimal length prefix.
void require_canonical(const common::Reader& r, std::size_t canonical_size,
                       std::size_t size) {
  if (!r.done()) {
    throw common::CryptoError("trailing bytes after key or signature");
  }
  if (canonical_size != size) {
    throw common::CryptoError("non-minimal length prefix in key or signature");
  }
}

}  // namespace

BigInt schnorr_challenge(const Group& group, const BigInt& commitment,
                         const BigInt& y, common::BytesView message) {
  common::Writer w(int_field_size(commitment) + int_field_size(y) +
                   common::prefixed_size(message.size()));
  put_int(w, commitment);
  put_int(w, y);
  w.bytes(message);
  return group.hash_to_scalar(w.data());
}

std::size_t PublicKey::encoded_size() const { return int_field_size(y); }

void PublicKey::encode_to(common::Writer& w) const { put_int(w, y); }

common::Bytes PublicKey::encode() const {
  common::Writer w(encoded_size());
  encode_to(w);
  return w.take();
}

PublicKey PublicKey::decode(common::BytesView data) {
  common::Reader r(data);
  PublicKey key{get_int(r)};
  require_canonical(r, key.encoded_size(), data.size());
  return key;
}

std::string PublicKey::fingerprint() const {
  return digest_hex(sha256(encode())).substr(0, 16);
}

std::size_t Signature::encoded_size() const {
  return int_field_size(challenge) + int_field_size(response) +
         int_field_size(commitment);
}

void Signature::encode_to(common::Writer& w) const {
  put_int(w, challenge);
  put_int(w, response);
  put_int(w, commitment);
}

common::Bytes Signature::encode() const {
  common::Writer w(encoded_size());
  encode_to(w);
  return w.take();
}

Signature Signature::decode(common::BytesView data) {
  common::Reader r(data);
  Signature sig;
  sig.challenge = get_int(r);
  sig.response = get_int(r);
  sig.commitment = get_int(r);
  require_canonical(r, sig.encoded_size(), data.size());
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
