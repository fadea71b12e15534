#include "crypto/group.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <mutex>

#include "common/error.hpp"
#include "crypto/group_params.hpp"
#include "crypto/montgomery_kernel.hpp"

namespace veil::crypto {

FixedBaseTable::FixedBaseTable(std::shared_ptr<const MontgomeryCtx> ctx,
                               BigInt base, std::size_t max_exp_bits,
                               std::size_t window_bits)
    : ctx_(std::move(ctx)), base_(std::move(base)), window_bits_(window_bits) {
  // Both widths divide 32, so every digit sits inside one BigInt limb.
  if (window_bits_ != 4 && window_bits_ != 8) {
    throw common::CryptoError("FixedBaseTable: window must be 4 or 8 bits");
  }
  row_ = (std::size_t{1} << window_bits_) - 1;
  digits_ = (max_exp_bits + window_bits_ - 1) / window_bits_;
  ctx_->dispatch([&](auto width) {
    constexpr std::size_t K = width;
    windows_.resize(digits_ * row_ * K);
    // cur = base^(2^(w*i)) in Montgomery form, advanced one window at a
    // time.
    std::array<MontgomeryCtx::Limb, K> cur{};
    ctx_->enter<K>(base_, cur.data());
    for (std::size_t i = 0; i < digits_; ++i) {
      MontgomeryCtx::Limb* row = &windows_[i * row_ * K];
      std::copy(cur.begin(), cur.end(), row);
      for (std::size_t d = 1; d < row_; ++d) {
        ctx_->mul<K>(row + d * K, row + (d - 1) * K, cur.data());
      }
      // base^(2^(w*(i+1))) = base^((2^w - 1) * 2^(w*i)) * base^(2^(w*i)).
      ctx_->mul<K>(cur.data(), row + (row_ - 1) * K, cur.data());
    }
  });
}

template <std::size_t K>
void FixedBaseTable::accumulate(MontgomeryCtx::Limb* acc, bool& any,
                                const BigInt& e) const {
  const std::size_t bits = e.bit_length();
  const std::vector<std::uint32_t>& limbs = e.limbs();
  const std::uint32_t mask = static_cast<std::uint32_t>(row_);
  for (std::size_t i = 0; i * window_bits_ < bits; ++i) {
    const std::size_t pos = i * window_bits_;
    const std::uint32_t digit = (limbs[pos / 32] >> (pos % 32)) & mask;
    if (digit == 0) continue;
    const MontgomeryCtx::Limb* entry = &windows_[(i * row_ + digit - 1) * K];
    if (any) {
      ctx_->mul<K>(acc, acc, entry);
    } else {
      std::copy(entry, entry + K, acc);
      any = true;
    }
  }
}

BigInt FixedBaseTable::pow(const BigInt& e) const {
  if (!covers(e)) return ctx_->pow(base_, e);
  // Product of one table entry per nonzero w-bit exponent digit; no
  // squarings.
  return ctx_->dispatch([&](auto width) {
    constexpr std::size_t K = width;
    std::array<MontgomeryCtx::Limb, K> acc{};
    bool any = false;
    accumulate<K>(acc.data(), any, e);
    return any ? ctx_->leave<K>(acc.data()) : BigInt(1);
  });
}

BigInt FixedBaseTable::pow_mul(const BigInt& e, const FixedBaseTable& other,
                               const BigInt& f) const {
  if (ctx_ != other.ctx_ || !covers(e) || !other.covers(f)) {
    return ctx_->mod_mul(pow(e), other.pow(f));
  }
  return ctx_->dispatch([&](auto width) {
    constexpr std::size_t K = width;
    std::array<MontgomeryCtx::Limb, K> acc{};
    bool any = false;
    accumulate<K>(acc.data(), any, e);
    other.accumulate<K>(acc.data(), any, f);
    return any ? ctx_->leave<K>(acc.data()) : BigInt(1);
  });
}

// One record per member key. `age` orders every record for the key cap;
// `table_age` orders the records holding a table for the table cap.
// Both hold map iterators, which stay valid until their record is erased.
struct Group::KeyCache {
  struct Record {
    // check_key uses since the key was remembered or its table was
    // dropped; the one use that brings it to 2 builds the table.
    std::uint64_t uses = 0;
    std::shared_ptr<const FixedBaseTable> table;
  };
  using Map = std::map<BigInt, Record>;
  std::mutex mu;
  Map keys;
  std::deque<Map::iterator> age;        // oldest first
  std::deque<Map::iterator> table_age;  // oldest first

  // Records member y with its first use. Threads that check y
  // concurrently on first sight count as that one use, so the count still
  // steps through 2, the value that triggers the table build.
  void remember(const BigInt& y) {
    const auto [it, inserted] = keys.try_emplace(y);
    if (!inserted) return;
    it->second.uses = 1;
    age.push_back(it);
    if (age.size() > kKeyCacheCapacity) {
      const Map::iterator oldest = age.front();
      age.pop_front();
      if (oldest->second.table) {
        table_age.erase(
            std::find(table_age.begin(), table_age.end(), oldest));
      }
      keys.erase(oldest);
    }
  }

  // Attaches a freshly built table to y's record, unless y was evicted
  // meanwhile or a re-remembered y already got one (the caller still uses
  // the table it built). The dropped oldest table's key starts counting
  // again, so its next use rebuilds it.
  void publish(const BigInt& y, std::shared_ptr<const FixedBaseTable> table) {
    const auto it = keys.find(y);
    if (it == keys.end() || it->second.table) return;
    it->second.table = std::move(table);
    table_age.push_back(it);
    if (table_age.size() > kKeyTableCapacity) {
      Record& oldest = table_age.front()->second;
      oldest.table.reset();
      oldest.uses = 1;
      table_age.pop_front();
    }
  }
};

Group::Group(BigInt p, BigInt q, BigInt g, BigInt h)
    : p_(std::move(p)),
      q_(std::move(q)),
      g_(std::move(g)),
      h_(std::move(h)),
      scalars_(q_),
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
    // 8-bit windows: ~20 products per scalar instead of ~38 at 4 bits,
    // for 255 entries per digit once per group.
    const std::size_t exp_bits = q_.bit_length() + 1;
    g_table_ = std::make_shared<const FixedBaseTable>(
        mont_p_, g_, exp_bits, kGeneratorWindowBits);
    h_table_ = std::make_shared<const FixedBaseTable>(
        mont_p_, h_, exp_bits, kGeneratorWindowBits);
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
  KeyCache& cache = *key_cache_;
  bool build = false;
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    const auto it = cache.keys.find(y);
    if (it != cache.keys.end()) {
      KeyCache::Record& rec = it->second;
      if (++rec.uses != 2 || !mont_p_) return {true, true, rec.table};
      build = true;
    }
  }
  // The exponentiations run outside the lock, so concurrent verifiers
  // never queue behind one another's checks or table builds; a key two
  // threads check at once is simply inserted once, and only the use that
  // brought the count to 2 builds the table (the others use group.pow
  // until it is published).
  if (build) {
    auto table = std::make_shared<const FixedBaseTable>(
        mont_p_, y, q_.bit_length() + 1);
    std::lock_guard<std::mutex> lock(cache.mu);
    cache.publish(y, table);
    return {true, true, std::move(table)};
  }
  if (!is_element(y)) return {false, false, nullptr};
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.remember(y);
  return {true, false, nullptr};
}

std::size_t Group::key_cache_size() const {
  std::lock_guard<std::mutex> lock(key_cache_->mu);
  return key_cache_->keys.size();
}

std::size_t Group::key_table_count() const {
  std::lock_guard<std::mutex> lock(key_cache_->mu);
  return key_cache_->table_age.size();
}

BigInt Group::hash_to_scalar(common::BytesView data) const {
  // Two counter-separated digests give 512 bits, enough that reduction
  // mod a 256-bit q is statistically uniform.
  const Digest d0 = Sha256().update("veil.h2s.0").update(data).finalize();
  const Digest d1 = Sha256().update("veil.h2s.1").update(data).finalize();
  std::array<std::uint8_t, 2 * kSha256DigestSize> wide;
  std::copy(d1.begin(), d1.end(),
            std::copy(d0.begin(), d0.end(), wide.begin()));
  return ScalarField::to_big(scalars_.reduce(wide));
}

BigInt Group::hash_to_element(common::BytesView data) const {
  const BigInt e = hash_to_scalar(data);
  return pow_g(e + BigInt(1));  // never the identity
}

}  // namespace veil::crypto
