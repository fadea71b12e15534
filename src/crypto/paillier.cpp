#include "crypto/paillier.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace veil::crypto {

namespace {
// L(x) = (x - 1) / n
BigInt paillier_l(const BigInt& x, const BigInt& n) {
  return (x - BigInt(1)) / n;
}

// base^e mod n^2; moduli wider than the Montgomery kernel (n^2 over 2048
// bits) have no context and take BigInt's classic path.
BigInt pow_n2(const PaillierPublicKey& pk, const BigInt& base,
              const BigInt& e) {
  return pk.mont_n2 ? pk.mont_n2->pow(base, e)
                    : base.mod_pow(e, pk.n_squared);
}
}  // namespace

common::Bytes PaillierPublicKey::encode() const {
  common::Writer w;
  w.bytes(n.to_bytes_be());
  return w.take();
}

PaillierPublicKey PaillierPublicKey::decode(common::BytesView data) {
  common::Reader r(data);
  PaillierPublicKey pk;
  pk.n = BigInt::from_bytes_be(r.bytes());
  pk.n_squared = pk.n * pk.n;
  pk.g = pk.n + BigInt(1);
  pk.mont_n2 = MontgomeryCtx::shared(pk.n_squared);
  return pk;
}

PaillierKeyPair PaillierKeyPair::generate(common::Rng& rng,
                                          std::size_t prime_bits) {
  PaillierKeyPair kp;
  BigInt p, q;
  do {
    p = BigInt::generate_prime(rng, prime_bits);
    q = BigInt::generate_prime(rng, prime_bits);
  } while (p == q);

  kp.public_.n = p * q;
  kp.public_.n_squared = kp.public_.n * kp.public_.n;
  kp.public_.g = kp.public_.n + BigInt(1);
  kp.public_.mont_n2 = MontgomeryCtx::shared(kp.public_.n_squared);
  kp.lambda_ = BigInt::lcm(p - BigInt(1), q - BigInt(1));
  // mu = (L(g^lambda mod n^2))^-1 mod n
  const BigInt gl = pow_n2(kp.public_, kp.public_.g, kp.lambda_);
  kp.mu_ = paillier_l(gl, kp.public_.n).mod_inverse(kp.public_.n);
  return kp;
}

BigInt PaillierKeyPair::decrypt(const PaillierCiphertext& ct) const {
  if (ct.c.is_zero() || ct.c >= public_.n_squared) {
    throw common::CryptoError("paillier: malformed ciphertext");
  }
  const BigInt cl = pow_n2(public_, ct.c, lambda_);
  return (paillier_l(cl, public_.n) * mu_) % public_.n;
}

PaillierCiphertext paillier_encrypt(const PaillierPublicKey& pk,
                                    const BigInt& m, common::Rng& rng) {
  if (m >= pk.n) throw common::CryptoError("paillier: plaintext >= n");
  BigInt r;
  do {
    r = BigInt::random_below(rng, pk.n);
  } while (r.is_zero() || BigInt::gcd(r, pk.n) != BigInt(1));
  // c = g^m * r^n mod n^2; with g = n+1, g^m = 1 + m*n (mod n^2).
  const BigInt gm = (BigInt(1) + m * pk.n) % pk.n_squared;
  const BigInt rn = pow_n2(pk, r, pk.n);
  return PaillierCiphertext{(gm * rn) % pk.n_squared};
}

PaillierCiphertext paillier_add(const PaillierPublicKey& pk,
                                const PaillierCiphertext& a,
                                const PaillierCiphertext& b) {
  return PaillierCiphertext{(a.c * b.c) % pk.n_squared};
}

PaillierCiphertext paillier_mul_plain(const PaillierPublicKey& pk,
                                      const PaillierCiphertext& a,
                                      const BigInt& k) {
  return PaillierCiphertext{pow_n2(pk, a.c, k)};
}

}  // namespace veil::crypto
