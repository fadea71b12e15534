#include "crypto/group.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <mutex>
#include <set>

#include "common/error.hpp"
#include "crypto/group_params.hpp"
#include "crypto/montgomery_kernel.hpp"

namespace veil::crypto {

FixedBaseTable::FixedBaseTable(std::shared_ptr<const MontgomeryCtx> ctx,
                               BigInt base, std::size_t max_exp_bits)
    : ctx_(std::move(ctx)),
      base_(std::move(base)),
      digits_((max_exp_bits + kWindowBits - 1) / kWindowBits) {
  ctx_->dispatch([&](auto width) {
    constexpr std::size_t K = width;
    windows_.resize(digits_ * 15 * K);
    // cur = base^(16^i) in Montgomery form, advanced one window at a time.
    std::array<MontgomeryCtx::Limb, K> cur{};
    ctx_->enter<K>(base_, cur.data());
    for (std::size_t i = 0; i < digits_; ++i) {
      MontgomeryCtx::Limb* row = &windows_[i * 15 * K];
      std::copy(cur.begin(), cur.end(), row);
      for (std::size_t d = 1; d < 15; ++d) {
        ctx_->mul<K>(row + d * K, row + (d - 1) * K, cur.data());
      }
      ctx_->mul<K>(cur.data(), row + 14 * K, cur.data());  // base^(16^(i+1))
    }
  });
}

BigInt FixedBaseTable::pow(const BigInt& e) const {
  if (e.bit_length() > digits_ * kWindowBits) {
    return ctx_->pow(base_, e);
  }
  // Product of one table entry per nonzero 4-bit exponent digit; no
  // squarings.
  return ctx_->dispatch([&](auto width) {
    constexpr std::size_t K = width;
    std::array<MontgomeryCtx::Limb, K> acc{};
    bool any = false;
    const std::vector<std::uint32_t>& limbs = e.limbs();
    for (std::size_t i = 0; i < limbs.size(); ++i) {
      for (std::size_t j = 0; j < 8; ++j) {
        const std::uint32_t digit = (limbs[i] >> (4 * j)) & 0xf;
        if (digit == 0) continue;
        const MontgomeryCtx::Limb* entry =
            &windows_[((i * 8 + j) * 15 + digit - 1) * K];
        if (any) {
          ctx_->mul<K>(acc.data(), acc.data(), entry);
        } else {
          std::copy(entry, entry + K, acc.begin());
          any = true;
        }
      }
    }
    return any ? ctx_->leave<K>(acc.data()) : BigInt(1);
  });
}

struct Group::KeyCache {
  std::mutex mu;
  std::set<BigInt> members;
  std::deque<std::set<BigInt>::const_iterator> age;  // oldest first
};

Group::Group(BigInt p, BigInt q, BigInt g, BigInt h)
    : p_(std::move(p)),
      q_(std::move(q)),
      g_(std::move(g)),
      h_(std::move(h)),
      key_cache_(std::make_shared<KeyCache>()) {
  // The Montgomery context must exist before the is_element checks below,
  // which route through pow().
  mont_p_ = MontgomeryCtx::shared(p_);
  if (((p_ - BigInt(1)) % q_) != BigInt()) {
    throw common::CryptoError("Group: q does not divide p-1");
  }
  if (!is_element(g_) || !is_element(h_)) {
    throw common::CryptoError("Group: generator not in subgroup");
  }
  if (mont_p_) {
    // Scalars are mod q; +1 covers hash_to_element's e+1 lift. Anything
    // longer falls back to the generic windowed pow inside the table.
    const std::size_t exp_bits = q_.bit_length() + 1;
    g_table_ = std::make_shared<const FixedBaseTable>(mont_p_, g_, exp_bits);
    h_table_ = std::make_shared<const FixedBaseTable>(mont_p_, h_, exp_bits);
  }
}

const Group& Group::default_group() {
  static const Group group(BigInt::from_hex(params::kDefaultP),
                           BigInt::from_hex(params::kDefaultQ),
                           BigInt::from_hex(params::kDefaultG),
                           BigInt::from_hex(params::kDefaultH));
  return group;
}

const Group& Group::test_group() {
  static const Group group(BigInt::from_hex(params::kTestP),
                           BigInt::from_hex(params::kTestQ),
                           BigInt::from_hex(params::kTestG),
                           BigInt::from_hex(params::kTestH));
  return group;
}

Group Group::generate(common::Rng& rng, std::size_t p_bits,
                      std::size_t q_bits) {
  const BigInt q = BigInt::generate_prime(rng, q_bits);
  // Find p = q*k + 1 prime.
  BigInt p, k;
  for (;;) {
    k = BigInt::random_bits(rng, p_bits - q_bits);
    if (k.is_odd()) k += BigInt(1);  // keep p odd: q odd, k even
    p = q * k + BigInt(1);
    if (p.bit_length() != p_bits) continue;
    if (p.is_probable_prime(rng)) break;
  }
  // Generators: random base lifted into the order-q subgroup.
  const BigInt exp = (p - BigInt(1)) / q;
  BigInt g;
  do {
    g = BigInt::random_below(rng, p).mod_pow(exp, p);
  } while (g == BigInt(1) || g.is_zero());
  BigInt h;
  do {
    h = BigInt::random_below(rng, p).mod_pow(exp, p);
  } while (h == BigInt(1) || h.is_zero() || h == g);
  return Group(p, q, g, h);
}

BigInt Group::random_scalar(common::Rng& rng) const {
  BigInt s;
  do {
    s = BigInt::random_below(rng, q_);
  } while (s.is_zero());
  return s;
}

bool Group::is_element(const BigInt& x) const {
  if (x.is_zero() || x >= p_) return false;
  return pow(x, q_) == BigInt(1);
}

Group::KeyCheck Group::check_key(const BigInt& y) const {
  {
    std::lock_guard<std::mutex> lock(key_cache_->mu);
    if (key_cache_->members.contains(y)) return {true, true};
  }
  // The exponentiation runs outside the lock, so concurrent verifiers
  // never queue behind one another's checks; a key two threads check at
  // once is simply inserted once.
  if (!is_element(y)) return {false, false};
  std::lock_guard<std::mutex> lock(key_cache_->mu);
  const auto [it, inserted] = key_cache_->members.insert(y);
  if (inserted) {
    key_cache_->age.push_back(it);
    if (key_cache_->age.size() > kKeyCacheCapacity) {
      key_cache_->members.erase(key_cache_->age.front());
      key_cache_->age.pop_front();
    }
  }
  return {true, false};
}

std::size_t Group::key_cache_size() const {
  std::lock_guard<std::mutex> lock(key_cache_->mu);
  return key_cache_->members.size();
}

BigInt Group::hash_to_scalar(common::BytesView data) const {
  // Two counter-separated digests give 512 bits, enough that reduction
  // mod a 256-bit q is statistically uniform.
  const Digest d0 = Sha256().update("veil.h2s.0").update(data).finalize();
  const Digest d1 = Sha256().update("veil.h2s.1").update(data).finalize();
  common::Bytes wide = digest_bytes(d0);
  const common::Bytes more = digest_bytes(d1);
  wide.insert(wide.end(), more.begin(), more.end());
  return BigInt::from_bytes_be(wide) % q_;
}

BigInt Group::hash_to_element(common::BytesView data) const {
  const BigInt e = hash_to_scalar(data);
  return pow_g(e + BigInt(1));  // never the identity
}

}  // namespace veil::crypto
