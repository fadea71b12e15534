#include "ledger/mempool.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace veil::ledger {

common::Bytes ValidationToken::encode() const {
  common::Writer w;
  w.str(tx_id);
  w.bytes(common::BytesView(body_digest.data(), body_digest.size()));
  w.varint(read_snapshot.size());
  for (const ReadAccess& r : read_snapshot) {
    w.str(r.key);
    w.u64(r.version);
  }
  w.u64(admitted_at);
  w.boolean(verified);
  return w.take();
}

ValidationToken ValidationToken::decode(common::BytesView data) {
  common::Reader r(data);
  ValidationToken t;
  t.tx_id = r.str();
  const common::Bytes digest = r.bytes();
  if (digest.size() != t.body_digest.size()) {
    throw common::Error("ValidationToken::decode: bad digest length");
  }
  std::copy(digest.begin(), digest.end(), t.body_digest.begin());
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    ReadAccess ra;
    ra.key = r.str();
    ra.version = r.u64();
    t.read_snapshot.push_back(std::move(ra));
  }
  t.admitted_at = r.u64();
  t.verified = r.boolean();
  return t;
}

common::Bytes EvictionRecord::encode() const {
  common::Writer w;
  w.str(tx_id);
  w.u8(static_cast<std::uint8_t>(cause));
  w.u64(at);
  return w.take();
}

EvictionRecord EvictionRecord::decode(common::BytesView data) {
  common::Reader r(data);
  EvictionRecord rec;
  rec.tx_id = r.str();
  const std::uint8_t cause = r.u8();
  if (cause > static_cast<std::uint8_t>(Cause::PinnedSkip)) {
    throw common::Error("EvictionRecord::decode: unknown cause");
  }
  rec.cause = static_cast<Cause>(cause);
  rec.at = r.u64();
  return rec;
}

bool Mempool::admit(const Transaction& tx, const crypto::Digest& body_digest,
                    bool verified, common::SimTime now) {
  const std::string id = tx_id(body_digest);
  if (tokens_.contains(id)) {
    ++stats_.duplicates;
    return false;
  }
  while (tokens_.size() >= config_.capacity && !fifo_.empty()) {
    // Oldest-first, but a pinned victim is spared (its ValidationToken is
    // in flight in a wave); the next-oldest unpinned resident goes
    // instead. Each sparing is logged so drop pressure stays visible.
    std::deque<std::string> spared;
    bool evicted = false;
    while (!fifo_.empty()) {
      std::string victim = std::move(fifo_.front());
      fifo_.pop_front();
      if (!tokens_.contains(victim)) continue;  // stale fifo entry
      if (pinned_.contains(victim)) {
        ++stats_.eviction_skips_pinned;
        evictions_.push_back({victim, EvictionRecord::Cause::PinnedSkip, now});
        spared.push_back(std::move(victim));
        continue;
      }
      tokens_.erase(victim);
      ++stats_.evicted_capacity;
      evictions_.push_back({victim, EvictionRecord::Cause::Capacity, now});
      evicted = true;
      break;
    }
    // Spared entries keep their age order at the head of the queue.
    for (auto it = spared.rbegin(); it != spared.rend(); ++it) {
      fifo_.push_front(std::move(*it));
    }
    if (!evicted) {
      // Every resident is pinned: admit over capacity rather than evict
      // in-flight work; the overshoot retires as waves land and unpin.
      ++stats_.pinned_overflow;
      break;
    }
  }
  ValidationToken token;
  token.tx_id = id;
  token.body_digest = body_digest;
  token.read_snapshot = tx.reads;
  token.admitted_at = now;
  token.verified = verified;
  tokens_.emplace(id, std::move(token));
  fifo_.push_back(id);
  ++stats_.admitted;
  return true;
}

const ValidationToken* Mempool::token(const std::string& tx_id) const {
  const auto it = tokens_.find(tx_id);
  return it == tokens_.end() ? nullptr : &it->second;
}

bool Mempool::validated(const crypto::Digest& body_digest,
                        const WorldState& state, common::SimTime now) {
  const std::string id = tx_id(body_digest);
  const auto it = tokens_.find(id);
  if (it == tokens_.end() || !it->second.verified) {
    ++stats_.token_misses;
    return false;
  }
  // The id is a prefix of the hex body digest, so an id hit already pins
  // the body; a Byzantine orderer that rewrites any field changes the
  // digest and misses. The full-digest comparison stays as defence in
  // depth.
  if (it->second.body_digest != body_digest) {
    ++stats_.token_misses;
    return false;
  }
  for (const ReadAccess& r : it->second.read_snapshot) {
    // version_of walks the trie (O(depth)) and never copies the value.
    if (state.version_of(r.key) != r.version) {
      ++stats_.invalidated;
      tokens_.erase(it);
      evictions_.push_back({id, EvictionRecord::Cause::Invalidated, now});
      ++stats_.token_misses;
      return false;
    }
  }
  ++stats_.token_hits;
  return true;
}

void Mempool::remove(const std::string& tx_id, EvictionRecord::Cause cause,
                     common::SimTime now) {
  if (!tokens_.erase(tx_id)) return;
  if (cause == EvictionRecord::Cause::Committed) ++stats_.removed_committed;
  evictions_.push_back({tx_id, cause, now});
}

void Mempool::admit_wave(crypto::BatchVerifier& verifier,
                         const std::vector<WaveItem>& wave,
                         common::SimTime now) {
  std::vector<std::size_t> queued;  // batch index -> wave index
  for (std::size_t w = 0; w < wave.size(); ++w) {
    const crypto::Digest& digest = *wave[w].body_digest;
    const common::BytesView msg(digest.data(), digest.size());
    for (const Endorsement& e : wave[w].tx->endorsements) {
      verifier.add_signature(e.key, msg, e.signature);
      queued.push_back(w);
    }
  }
  std::vector<char> ok(wave.size(), 1);
  if (verifier.pending() > 0) {
    for (const std::size_t bad : verifier.verify().invalid) ok[queued[bad]] = 0;
  }
  for (std::size_t w = 0; w < wave.size(); ++w) {
    admit(*wave[w].tx, *wave[w].body_digest, ok[w] != 0, now);
  }
}

Mempool::BlockCheck Mempool::check_block(crypto::BatchVerifier& verifier,
                                         const Block& block,
                                         const WorldState& state, bool replay,
                                         bool verify, common::SimTime now) {
  const std::size_t count = block.transactions.size();
  BlockCheck out{std::vector<crypto::Digest>(count),
                 std::vector<std::string>(count), std::vector<char>(count, 1),
                 std::vector<char>(count, 1)};
  for (std::size_t i = 0; i < count; ++i) {
    out.digests[i] = block.transactions[i].body_digest();
    out.ids[i] = tx_id(out.digests[i]);
  }
  if (!verify) return out;
  std::vector<std::size_t> queued;  // batch index -> transaction index
  for (std::size_t i = 0; i < count; ++i) {
    // Read versions are checked against pre-block state; a version that
    // moves mid-block only affects MVCC, never signature validity.
    if (!replay && validated(out.digests[i], state, now)) continue;
    const common::BytesView msg(out.digests[i].data(), out.digests[i].size());
    const std::vector<Endorsement>& endorsements =
        block.transactions[i].endorsements;
    for (const Endorsement& e : endorsements) {
      verifier.add_signature(e.key, msg, e.signature);
      queued.push_back(i);
    }
    if (!endorsements.empty()) out.any_valid[i] = 0;  // until one verifies
  }
  if (verifier.pending() == 0) return out;
  const crypto::BatchOutcome outcome = verifier.verify();
  const std::set<std::size_t> bad(outcome.invalid.begin(),
                                  outcome.invalid.end());
  for (std::size_t k = 0; k < queued.size(); ++k) {
    if (bad.contains(k)) {
      out.all_valid[queued[k]] = 0;
    } else {
      out.any_valid[queued[k]] = 1;
    }
  }
  return out;
}

void Mempool::clear() {
  tokens_.clear();
  fifo_.clear();
  pinned_.clear();
}

}  // namespace veil::ledger
