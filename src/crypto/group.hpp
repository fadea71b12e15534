// Schnorr (prime-order subgroup) parameters over Z_p*.
//
// All discrete-log based primitives — Schnorr signatures, Pedersen
// commitments, sigma-protocol ZKPs, Idemix-style credentials — operate in
// a subgroup of order q inside Z_p* (DSA-style parameters, q | p-1).
// Fixed parameter sets were generated once with tools/gen_group_params and
// are compiled in, mirroring how production systems pin RFC 3526 groups.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "crypto/montgomery.hpp"
#include "crypto/scalar_field.hpp"
#include "crypto/sha256.hpp"

namespace veil::crypto {

/// Precomputed powers of a fixed base modulo an odd n, for the
/// repeated exponentiations of a long-lived base: the group generators
/// (Pedersen commitments, Schnorr signing, ElGamal keygen, the ZKP
/// prover/verifier) and public keys that verify more than once. With
/// base^(d·2^(w·i)) tabulated for every w-bit exponent digit position i
/// and digit d, an exponentiation costs one Montgomery multiply per
/// nonzero digit and no squarings at all.
class FixedBaseTable {
 public:
  /// Tabulates powers covering exponents up to `max_exp_bits` bits in
  /// digits of `window_bits` bits: 4 (public keys) or 8 (the group
  /// generators); longer exponents fall back to the generic windowed pow.
  /// A w-bit table costs one product per nonzero w-bit digit and holds
  /// 2^w - 1 entries per digit.
  FixedBaseTable(std::shared_ptr<const MontgomeryCtx> ctx, BigInt base,
                 std::size_t max_exp_bits, std::size_t window_bits = 4);

  /// base^e mod n.
  BigInt pow(const BigInt& e) const;
  /// base^e * other.base()^f mod n. Over one shared context both
  /// exponents' digits feed one accumulator: one conversion out and no
  /// modular multiply of two results.
  BigInt pow_mul(const BigInt& e, const FixedBaseTable& other,
                 const BigInt& f) const;
  const BigInt& base() const { return base_; }

 private:
  bool covers(const BigInt& e) const {
    return e.bit_length() <= digits_ * window_bits_;
  }
  /// acc *= base^e, one product per nonzero digit; `any` says whether
  /// acc holds a value yet (it starts as the first entry, not as 1).
  template <std::size_t K>
  void accumulate(MontgomeryCtx::Limb* acc, bool& any, const BigInt& e) const;

  std::shared_ptr<const MontgomeryCtx> ctx_;
  BigInt base_;
  std::size_t window_bits_;
  std::size_t row_ = 0;  // entries per digit position, 2^w - 1
  std::size_t digits_ = 0;
  // Flat Montgomery-form limbs: entry (i, d) = base^(d * 2^(w*i)) for
  // d = 1..row_ starts at ((i * row_) + d - 1) * ctx_->limb_count().
  std::vector<MontgomeryCtx::Limb> windows_;
};

class Group {
 public:
  /// p: field prime; q: subgroup order (q | p-1, at most 256 bits); g:
  /// generator of the order-q subgroup; h: second independent generator
  /// (for Pedersen), derived as SHA-based hash-to-group so log_g(h) is
  /// unknown.
  Group(BigInt p, BigInt q, BigInt g, BigInt h);

  /// 1024-bit p / 256-bit q production-style parameters.
  static const Group& default_group();

  /// 512-bit p / 160-bit q parameters for fast unit tests.
  static const Group& test_group();

  /// Generate fresh parameters (slow; used by the parameter tool and by
  /// property tests that should not depend on the pinned groups).
  static Group generate(common::Rng& rng, std::size_t p_bits,
                        std::size_t q_bits);

  const BigInt& p() const { return p_; }
  const BigInt& q() const { return q_; }
  const BigInt& g() const { return g_; }
  const BigInt& h() const { return h_; }

  /// g^e mod p (fixed-base table, 8-bit windows).
  BigInt pow_g(const BigInt& e) const {
    return g_table_ ? g_table_->pow(e) : g_.mod_pow(e, p_);
  }
  /// h^e mod p (fixed-base table, 8-bit windows).
  BigInt pow_h(const BigInt& e) const {
    return h_table_ ? h_table_->pow(e) : h_.mod_pow(e, p_);
  }
  /// g^s * table.base()^e mod p: a Schnorr verification's g^s * y^e
  /// from two tables in one accumulator.
  BigInt pow_g_mul(const BigInt& s, const FixedBaseTable& table,
                   const BigInt& e) const {
    return g_table_ ? g_table_->pow_mul(s, table, e)
                    : mul(pow_g(s), table.pow(e));
  }
  /// Window width of the g and h tables.
  static constexpr std::size_t kGeneratorWindowBits = 8;
  /// a*b mod p (two Montgomery products).
  BigInt mul(const BigInt& a, const BigInt& b) const {
    return mont_p_ ? mont_p_->mod_mul(a, b) : (a * b) % p_;
  }
  /// a^e mod p (Montgomery context cached in the group).
  BigInt pow(const BigInt& a, const BigInt& e) const {
    return mont_p_ ? mont_p_->pow(a, e) : a.mod_pow(e, p_);
  }
  /// Multiplicative inverse mod p.
  BigInt inv(const BigInt& a) const { return a.mod_inverse(p_); }

  /// Division-free arithmetic mod q (signing's scalars, challenges).
  const ScalarField& scalars() const { return scalars_; }

  /// The group's Montgomery context for Z_p* arithmetic.
  const std::shared_ptr<const MontgomeryCtx>& mont() const { return mont_p_; }

  /// Uniform scalar in [1, q).
  BigInt random_scalar(common::Rng& rng) const;

  /// True iff x is a member of the order-q subgroup (x^q == 1, x != 0).
  bool is_element(const BigInt& x) const;

  /// is_element for a public key, memoized per distinct key so the y^q
  /// exponentiation is paid once per key rather than once per signature.
  /// The memo is shared by every crypto::verify call (and by every copy of
  /// this group), guarded by a mutex, and bounded at kKeyCacheCapacity
  /// keys with oldest-first eviction, so a stream of one-time keys cannot
  /// grow it. Only members are remembered: a non-member pays the full
  /// check, and fails it, on every use.
  ///
  /// check_key also counts each member's uses. On a key's second use, and
  /// on its next use after its table was dropped, it builds a 4-bit
  /// FixedBaseTable for y, so a long-lived key — a CA or endorser key —
  /// verifies with ~38 products for y^e instead of ~200, while a key
  /// verified once never pays for a table. At most kKeyTableCapacity keys
  /// hold a table; the oldest table is dropped first. Tables, like the
  /// membership check, are built outside the lock.
  struct KeyCheck {
    bool member = false;
    bool cached = false;  // answered from the memo
    // y's fixed-base table, when the key has earned one.
    std::shared_ptr<const FixedBaseTable> table;
  };
  KeyCheck check_key(const BigInt& y) const;
  static constexpr std::size_t kKeyCacheCapacity = 1024;
  /// Sized from measured traffic (perfbench, seed 1): one network of the
  /// E9 trade mix (Fabric, Corda and Quorum) verifies 4 keys more than
  /// once — 2 CA keys and 2 endorser keys — and a fabric_commit network 3.
  /// 8 slots hold two such networks' keys for 312 KB on test_group, 1 MB
  /// on default_group.
  static constexpr std::size_t kKeyTableCapacity = 8;
  std::size_t key_cache_size() const;
  std::size_t key_table_count() const;

  /// Map arbitrary bytes to a scalar mod q (for Fiat-Shamir challenges).
  BigInt hash_to_scalar(common::BytesView data) const;

  /// Map arbitrary bytes to a group element (hash-to-group via exponent).
  BigInt hash_to_element(common::BytesView data) const;

 private:
  BigInt p_, q_, g_, h_;
  ScalarField scalars_;
  // Shared so Group keeps value semantics: copies reuse the same
  // precomputation (all members above are immutable after construction).
  std::shared_ptr<const MontgomeryCtx> mont_p_;
  std::shared_ptr<const FixedBaseTable> g_table_, h_table_;
  struct KeyCache;
  std::shared_ptr<KeyCache> key_cache_;
};

}  // namespace veil::crypto
