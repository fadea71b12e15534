#include "ledger/state.hpp"

#include "common/serialize.hpp"

namespace veil::ledger {

// ---- Reads ------------------------------------------------------------------

std::optional<VersionedValue> WorldState::get(const std::string& key) const {
  auto hit = trie_.get(key);
  if (!hit) return std::nullopt;
  return VersionedValue{std::move(hit->first), hit->second};
}

std::uint64_t WorldState::version_of(const std::string& key) const {
  return trie_.version_of(key).value_or(0);
}

// ---- Writes -----------------------------------------------------------------

void WorldState::Batch::put(const std::string& key, common::Bytes value) {
  state_.trie_.stage(key, std::move(value), state_.version_of(key) + 1);
}

void WorldState::Batch::erase(const std::string& key) {
  state_.trie_.stage_erase(key);
}

CommitResult WorldState::Batch::apply(const Transaction& tx) {
  // Phase 1: validate reads. Version 0 means "key did not exist".
  for (const ReadAccess& read : tx.reads) {
    if (state_.version_of(read.key) != read.version) {
      return CommitResult::MvccConflict;
    }
  }
  // Phase 2: apply writes.
  for (const KvWrite& write : tx.writes) {
    if (write.is_delete) {
      erase(write.key);
    } else {
      put(write.key, write.value);
    }
  }
  return CommitResult::Applied;
}

void WorldState::put(const std::string& key, common::Bytes value) {
  Batch(*this).put(key, std::move(value));
}

void WorldState::erase(const std::string& key) { Batch(*this).erase(key); }

CommitResult WorldState::apply(const Transaction& tx) {
  return Batch(*this).apply(tx);
}

// ---- Iteration / queries ----------------------------------------------------

void WorldState::for_each(const Visitor& visit) const { trie_.for_each(visit); }

std::map<std::string, VersionedValue> WorldState::entries() const {
  std::map<std::string, VersionedValue> out;
  trie_.for_each([&out](const std::string& key, const common::Bytes& value,
                        std::uint64_t version) {
    out.emplace_hint(out.end(), key, VersionedValue{value, version});
    return true;
  });
  return out;
}

std::vector<std::pair<std::string, VersionedValue>> WorldState::get_range(
    const std::string& start_key, const std::string& end_key) const {
  std::vector<std::pair<std::string, VersionedValue>> out;
  trie_.scan_range(start_key, end_key,
                   [&out](const std::string& key, const common::Bytes& value,
                          std::uint64_t version) {
                     out.emplace_back(key, VersionedValue{value, version});
                     return true;
                   });
  return out;
}

std::vector<std::pair<std::string, VersionedValue>> WorldState::get_by_prefix(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, VersionedValue>> out;
  trie_.scan_prefix(prefix,
                    [&out](const std::string& key, const common::Bytes& value,
                           std::uint64_t version) {
                      out.emplace_back(key, VersionedValue{value, version});
                      return true;
                    });
  return out;
}

std::size_t WorldState::scan_range(const std::string& start_key,
                                   const std::string& end_key,
                                   const Visitor& visit) const {
  return trie_.scan_range(start_key, end_key, visit);
}

std::size_t WorldState::scan_prefix(const std::string& prefix,
                                    const Visitor& visit) const {
  return trie_.scan_prefix(prefix, visit);
}

// ---- Serialization ----------------------------------------------------------

common::Bytes WorldState::encode() const {
  common::Writer w;
  w.varint(trie_.size());
  trie_.for_each([&w](const std::string& key, const common::Bytes& value,
                      std::uint64_t version) {
    w.str(key);
    w.bytes(value);
    w.u64(version);
    return true;
  });
  return w.take();
}

WorldState WorldState::decode(common::BytesView data) {
  common::Reader r(data);
  WorldState state;
  const std::uint64_t count = r.varint();
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = r.str();
    common::Bytes value = r.bytes();
    const std::uint64_t version = r.u64();
    state.trie_.stage(key, std::move(value), version);
  }
  state.trie_.seal();
  return state;
}

WorldState WorldState::from_trie(StateTrie trie) {
  WorldState state;
  state.trie_ = std::move(trie);
  return state;
}

}  // namespace veil::ledger
