#include "ledger/state_trie.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace veil::ledger {

namespace {

constexpr std::string_view kNodeDomain = "veil.trie.node.v1";
constexpr std::string_view kEmptyDomain = "veil.trie.empty.v1";

common::Bytes to_nibbles(std::string_view key) {
  common::Bytes out;
  out.reserve(key.size() * 2);
  for (const char ch : key) {
    const auto b = static_cast<std::uint8_t>(ch);
    out.push_back(b >> 4);
    out.push_back(b & 0x0f);
  }
  return out;
}

std::string nibbles_to_key(const std::string& nibbles) {
  // Values only ever sit at whole-byte depths: keys are byte strings, so
  // their nibble expansion has even length by construction.
  std::string out;
  out.reserve(nibbles.size() / 2);
  for (std::size_t i = 0; i + 1 < nibbles.size(); i += 2) {
    out.push_back(static_cast<char>((nibbles[i] << 4) | nibbles[i + 1]));
  }
  return out;
}

/// Matching leading nibbles between `path` and `nibbles[pos..]`.
std::size_t match_len(const common::Bytes& path, const common::Bytes& nibbles,
                      std::size_t pos) {
  const std::size_t limit = std::min(path.size(), nibbles.size() - pos);
  std::size_t i = 0;
  while (i < limit && path[i] == nibbles[pos + i]) ++i;
  return i;
}

/// A node `slot` may edit in place: the node itself when it is already
/// dirty (a dirty node has one owner, the trie being written), else a
/// dirty copy swapped into `slot`. Sealed nodes are never written.
TrieNode& own(NodeRef& slot) {
  if (!slot->dirty) {
    auto copy = std::make_shared<TrieNode>(*slot);
    copy->dirty = true;
    slot = std::move(copy);
  }
  // Every node is created non-const (make_shared<TrieNode>); NodeRef is
  // const only so shared, sealed nodes cannot be written by accident.
  return const_cast<TrieNode&>(*slot);
}

/// Hash a dirty subtree once, children first. Cold children (no decoded
/// node) and sealed children keep their hashes.
void seal_node(TrieNode& node) {
  for (TrieChild& c : node.children) {
    if (!c.node) continue;
    if (c.node->dirty) seal_node(const_cast<TrieNode&>(*c.node));
    c.hash = c.node->hash;
  }
  node.hash = StateTrie::hash_node(StateTrie::encode_node(node));
  node.dirty = false;
}

NodeRef clone_dirty(const NodeRef& node) {
  auto copy = std::make_shared<TrieNode>(*node);
  for (TrieChild& c : copy->children) {
    if (c.node && c.node->dirty) c.node = clone_dirty(c.node);
  }
  return copy;
}

TrieChild edge(std::uint8_t nibble, NodeRef node) {
  TrieChild c;
  c.nibble = nibble;
  c.hash = node->hash;
  c.node = std::move(node);
  return c;
}

std::vector<TrieChild>::const_iterator find_child(
    const std::vector<TrieChild>& children, std::uint8_t nibble) {
  const auto it = std::lower_bound(
      children.begin(), children.end(), nibble,
      [](const TrieChild& c, std::uint8_t n) { return c.nibble < n; });
  return (it != children.end() && it->nibble == nibble) ? it : children.end();
}

}  // namespace

const crypto::Digest& StateTrie::empty_root() {
  static const crypto::Digest root = crypto::sha256(kEmptyDomain);
  return root;
}

StateTrie::StateTrie(const StateTrie& other)
    : root_(other.root_), cold_(other.cold_), size_(other.size_) {
  if (root_ && root_->dirty) {
    root_ = clone_dirty(root_);
    seal();
  }
}

StateTrie& StateTrie::operator=(const StateTrie& other) {
  if (this != &other) *this = StateTrie(other);
  return *this;
}

void StateTrie::require_sealed() const {
  if (!sealed()) {
    throw common::LedgerError("state trie: node hashes read before seal()");
  }
}

const crypto::Digest& StateTrie::root_hash() const {
  if (!root_) return empty_root();
  require_sealed();
  return root_->hash;
}

void StateTrie::seal() {
  if (root_ && root_->dirty) seal_node(const_cast<TrieNode&>(*root_));
}

common::Bytes StateTrie::encode_node(const TrieNode& node) {
  common::Writer w;
  w.u8(node.has_value ? 1 : 0);
  w.varint(node.path.size());
  w.raw(node.path);
  if (node.has_value) {
    w.bytes(node.value);
    w.u64(node.version);
  }
  w.varint(node.children.size());
  for (const TrieChild& c : node.children) {
    w.u8(c.nibble);
    w.raw(common::BytesView(c.hash.data(), c.hash.size()));
  }
  return w.take();
}

TrieNodeWire StateTrie::decode_node(common::BytesView data) {
  common::Reader r(data);
  TrieNodeWire wire;
  const std::uint8_t flags = r.u8();
  if (flags > 1) throw common::ProtocolError("trie node: bad flags");
  wire.has_value = flags == 1;
  const std::uint64_t path_len = r.varint();
  if (path_len > r.remaining()) {
    throw common::ProtocolError("trie node: path overruns buffer");
  }
  wire.path = r.raw(path_len);
  for (const std::uint8_t nib : wire.path) {
    if (nib >= 16) throw common::ProtocolError("trie node: path nibble >= 16");
  }
  if (wire.has_value) {
    wire.value = r.bytes();
    wire.version = r.u64();
  }
  const std::uint64_t child_count = r.varint();
  if (child_count > 16 ||
      child_count > r.remaining() / (1 + crypto::kSha256DigestSize)) {
    throw common::ProtocolError("trie node: child count overruns buffer");
  }
  int last = -1;
  for (std::uint64_t i = 0; i < child_count; ++i) {
    const std::uint8_t nibble = r.u8();
    if (nibble >= 16 || static_cast<int>(nibble) <= last) {
      throw common::ProtocolError("trie node: children not canonical");
    }
    last = nibble;
    const common::Bytes h = r.raw(crypto::kSha256DigestSize);
    crypto::Digest d{};
    std::copy(h.begin(), h.end(), d.begin());
    wire.children.emplace_back(nibble, d);
  }
  if (!r.done()) throw common::ProtocolError("trie node: trailing bytes");
  return wire;
}

crypto::Digest StateTrie::hash_node(common::BytesView encoded) {
  crypto::Sha256 h;
  h.update(kNodeDomain);
  h.update(encoded);
  return h.finalize();
}

const TrieNode* StateTrie::resolve(const TrieChild& child) const {
  if (child.node) return child.node.get();
  if (!cold_) {
    throw common::ProtocolError("trie: unresolved child without cold store");
  }
  const auto it = cold_->find(child.hash);
  if (it == cold_->end()) {
    throw common::ProtocolError("trie: cold node missing from store");
  }
  if (hash_node(it->second) != child.hash) {
    throw common::ProtocolError("trie: cold node fails hash verification");
  }
  const TrieNodeWire wire = decode_node(it->second);
  TrieNode node;
  node.path = wire.path;
  node.has_value = wire.has_value;
  node.value = wire.value;
  node.version = wire.version;
  node.children.reserve(wire.children.size());
  for (const auto& [nibble, hash] : wire.children) {
    TrieChild c;
    c.nibble = nibble;
    c.hash = hash;
    node.children.push_back(std::move(c));
  }
  node.hash = child.hash;
  child.node = std::make_shared<TrieNode>(std::move(node));
  return child.node.get();
}

std::optional<std::pair<common::Bytes, std::uint64_t>> StateTrie::get(
    std::string_view key) const {
  const common::Bytes nibbles = to_nibbles(key);
  const TrieNode* node = root_.get();
  std::size_t pos = 0;
  while (node != nullptr) {
    const std::size_t m = match_len(node->path, nibbles, pos);
    if (m < node->path.size()) return std::nullopt;
    pos += m;
    if (pos == nibbles.size()) {
      if (!node->has_value) return std::nullopt;
      return std::make_pair(node->value, node->version);
    }
    const auto it = find_child(node->children, nibbles[pos]);
    if (it == node->children.end()) return std::nullopt;
    ++pos;
    node = resolve(*it);
  }
  return std::nullopt;
}

std::optional<std::uint64_t> StateTrie::version_of(std::string_view key) const {
  const common::Bytes nibbles = to_nibbles(key);
  const TrieNode* node = root_.get();
  std::size_t pos = 0;
  while (node != nullptr) {
    const std::size_t m = match_len(node->path, nibbles, pos);
    if (m < node->path.size()) return std::nullopt;
    pos += m;
    if (pos == nibbles.size()) {
      if (!node->has_value) return std::nullopt;
      return node->version;
    }
    const auto it = find_child(node->children, nibbles[pos]);
    if (it == node->children.end()) return std::nullopt;
    ++pos;
    node = resolve(*it);
  }
  return std::nullopt;
}

void StateTrie::stage_rec(NodeRef& slot, const common::Bytes& nibbles,
                          std::size_t pos, common::Bytes& value,
                          std::uint64_t version, bool& inserted) {
  if (!slot) {
    auto leaf = std::make_shared<TrieNode>();
    leaf->path.assign(nibbles.begin() + static_cast<std::ptrdiff_t>(pos),
                      nibbles.end());
    leaf->has_value = true;
    leaf->value = std::move(value);
    leaf->version = version;
    leaf->dirty = true;
    inserted = true;
    slot = std::move(leaf);
    return;
  }
  const std::size_t m = match_len(slot->path, nibbles, pos);
  if (m == slot->path.size()) {
    TrieNode& node = own(slot);
    if (pos + m == nibbles.size()) {
      // Key terminates exactly here: overwrite (or add) the payload.
      inserted = !node.has_value;
      node.has_value = true;
      node.value = std::move(value);
      node.version = version;
      return;
    }
    // Descend into (or create) the child for the next nibble.
    const std::uint8_t c = nibbles[pos + m];
    auto it = std::lower_bound(
        node.children.begin(), node.children.end(), c,
        [](const TrieChild& e, std::uint8_t n) { return e.nibble < n; });
    if (it == node.children.end() || it->nibble != c) {
      TrieChild fresh;
      fresh.nibble = c;
      it = node.children.insert(it, std::move(fresh));
    } else {
      resolve(*it);
    }
    stage_rec(it->node, nibbles, pos + m + 1, value, version, inserted);
    return;
  }
  // Paths diverge inside this node's compressed run: split. The existing
  // node keeps everything after the divergent nibble; a new interior
  // node takes the common prefix.
  TrieNode& moved = own(slot);
  const std::uint8_t moved_nibble = moved.path[m];
  auto branch = std::make_shared<TrieNode>();
  branch->dirty = true;
  branch->path.assign(moved.path.begin(),
                      moved.path.begin() + static_cast<std::ptrdiff_t>(m));
  moved.path.erase(moved.path.begin(),
                   moved.path.begin() + static_cast<std::ptrdiff_t>(m) + 1);
  TrieChild a = edge(moved_nibble, std::move(slot));
  if (pos + m == nibbles.size()) {
    // The new key IS the common prefix: payload lives on the branch.
    inserted = true;
    branch->has_value = true;
    branch->value = std::move(value);
    branch->version = version;
    branch->children.push_back(std::move(a));
  } else {
    NodeRef leaf;
    stage_rec(leaf, nibbles, pos + m + 1, value, version, inserted);
    TrieChild b = edge(nibbles[pos + m], std::move(leaf));
    if (a.nibble < b.nibble) {
      branch->children = {std::move(a), std::move(b)};
    } else {
      branch->children = {std::move(b), std::move(a)};
    }
  }
  slot = std::move(branch);
}

void StateTrie::stage(std::string_view key, common::Bytes value,
                      std::uint64_t version) {
  const common::Bytes nibbles = to_nibbles(key);
  bool inserted = false;
  stage_rec(root_, nibbles, 0, value, version, inserted);
  if (size_ && inserted) ++*size_;
}

void StateTrie::set(std::string_view key, common::Bytes value,
                    std::uint64_t version) {
  stage(key, std::move(value), version);
  seal();
}

void StateTrie::merge_single_child(NodeRef& slot) {
  // A valueless node with one child is not canonical: collapse it into
  // the child by concatenating the compressed runs.
  TrieNode& node = own(slot);
  TrieChild& only = node.children.front();
  resolve(only);
  NodeRef child = only.node;
  TrieNode& merged = own(child);
  common::Bytes path = node.path;
  path.push_back(only.nibble);
  path.insert(path.end(), merged.path.begin(), merged.path.end());
  merged.path = std::move(path);
  slot = std::move(child);
}

bool StateTrie::erase_rec(NodeRef& slot, const common::Bytes& nibbles,
                          std::size_t pos) {
  if (!slot) return false;
  const std::size_t m = match_len(slot->path, nibbles, pos);
  if (m < slot->path.size()) return false;  // key diverges inside the run
  if (pos + m == nibbles.size()) {
    if (!slot->has_value) return false;
    if (slot->children.empty()) {  // leaf: drop the node
      slot.reset();
      return true;
    }
    TrieNode& node = own(slot);
    node.has_value = false;
    node.value.clear();
    node.version = 0;
    if (node.children.size() == 1) merge_single_child(slot);
    return true;
  }
  const auto it = find_child(slot->children, nibbles[pos + m]);
  if (it == slot->children.end()) return false;
  const std::size_t idx =
      static_cast<std::size_t>(it - slot->children.begin());
  resolve(*it);
  // Recurse on a handle so nothing above is copied unless the key exists.
  NodeRef child = it->node;
  if (!erase_rec(child, nibbles, pos + m + 1)) return false;
  TrieNode& node = own(slot);
  if (child) {
    node.children[idx].node = std::move(child);
    return true;
  }
  node.children.erase(node.children.begin() +
                      static_cast<std::ptrdiff_t>(idx));
  if (!node.has_value && node.children.size() == 1) {
    merge_single_child(slot);
  } else if (!node.has_value && node.children.empty()) {
    slot.reset();
  }
  return true;
}

void StateTrie::stage_erase(std::string_view key) {
  const common::Bytes nibbles = to_nibbles(key);
  if (erase_rec(root_, nibbles, 0) && size_) --*size_;
}

void StateTrie::erase(std::string_view key) {
  stage_erase(key);
  seal();
}

std::size_t StateTrie::size() const {
  if (!size_) {
    std::size_t count = 0;
    for_each([&count](const std::string&, const common::Bytes&,
                      std::uint64_t) {
      ++count;
      return true;
    });
    size_ = count;
  }
  return *size_;
}

std::size_t StateTrie::walk(const TrieNode* node, std::string& key_nibbles,
                            const Visitor& visit, bool& keep_going) const {
  std::size_t visited = 1;
  key_nibbles.append(node->path.begin(), node->path.end());
  if (node->has_value) {
    if (!visit(nibbles_to_key(key_nibbles), node->value, node->version)) {
      keep_going = false;
    }
  }
  for (const TrieChild& c : node->children) {
    if (!keep_going) break;
    key_nibbles.push_back(static_cast<char>(c.nibble));
    visited += walk(resolve(c), key_nibbles, visit, keep_going);
    key_nibbles.pop_back();
  }
  key_nibbles.resize(key_nibbles.size() - node->path.size());
  return visited;
}

std::size_t StateTrie::for_each(const Visitor& visit) const {
  if (!root_) return 0;
  std::string acc;
  bool keep_going = true;
  return walk(root_.get(), acc, visit, keep_going);
}

std::size_t StateTrie::scan_prefix(std::string_view prefix,
                                   const Visitor& visit) const {
  if (!root_) return 0;
  const common::Bytes want = to_nibbles(prefix);
  const TrieNode* node = root_.get();
  std::string acc;  // nibbles from the root down to (excluding) node->path
  std::size_t pos = 0;
  std::size_t visited = 0;
  while (true) {
    ++visited;
    const std::size_t m = match_len(node->path, want, pos);
    if (pos + node->path.size() >= want.size()) {
      // The node's run covers the rest of the prefix: the whole subtree
      // matches iff the overlap agrees.
      if (m < want.size() - pos) return visited;
      bool keep_going = true;
      return visited - 1 + walk(node, acc, visit, keep_going);
    }
    if (m < node->path.size()) return visited;  // diverged: no matches
    pos += m;
    const auto it = find_child(node->children, want[pos]);
    if (it == node->children.end()) return visited;
    acc.append(node->path.begin(), node->path.end());
    acc.push_back(static_cast<char>(want[pos]));
    ++pos;
    node = resolve(*it);
  }
}

namespace {

/// Lexicographic compare of `acc` against the first acc.size() nibbles
/// of `bound`: -1 below, 0 equal-on-prefix, +1 above.
int prefix_cmp(const std::string& acc, const common::Bytes& bound) {
  const std::size_t limit = std::min(acc.size(), bound.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const auto a = static_cast<std::uint8_t>(acc[i]);
    if (a != bound[i]) return a < bound[i] ? -1 : 1;
  }
  return 0;
}

}  // namespace

std::size_t StateTrie::scan_range(std::string_view start_key,
                                  std::string_view end_key,
                                  const Visitor& visit) const {
  if (!root_) return 0;
  const common::Bytes startN = to_nibbles(start_key);
  const std::string end(end_key);
  bool keep_going = true;
  const Visitor bounded = [&](const std::string& key,
                              const common::Bytes& value,
                              std::uint64_t version) {
    if (!end.empty() && key >= end) return false;  // ordered walk: done
    return visit(key, value, version);
  };
  // Seek: skip every subtree that lies wholly below start_key, walk the
  // rest in order (the bounded visitor stops the walk at end_key).
  std::string acc;
  std::size_t visited = 0;
  const std::function<void(const TrieNode*)> seek = [&](const TrieNode* node) {
    if (!keep_going) return;
    ++visited;
    acc.append(node->path.begin(), node->path.end());
    const int cmp = prefix_cmp(acc, startN);
    if (cmp > 0 || (cmp == 0 && acc.size() >= startN.size())) {
      // Everything under this node is >= start_key: plain ordered walk.
      acc.resize(acc.size() - node->path.size());
      visited += walk(node, acc, bounded, keep_going) - 1;
      return;
    }
    if (cmp == 0) {
      // acc is a proper prefix of startN: the node's own key (if any) is
      // below start; children partition around the next start nibble.
      const std::uint8_t t = startN[acc.size()];
      for (const TrieChild& c : node->children) {
        if (!keep_going) break;
        if (c.nibble < t) continue;
        acc.push_back(static_cast<char>(c.nibble));
        if (c.nibble == t) {
          seek(resolve(c));
        } else {
          visited += walk(resolve(c), acc, bounded, keep_going);
        }
        acc.pop_back();
      }
    }
    // cmp < 0: whole subtree below start_key — skip.
    acc.resize(acc.size() - node->path.size());
  };
  seek(root_.get());
  return visited;
}

void StateTrie::collect_nodes(NodeStore& out) const {
  require_sealed();
  if (!root_) return;
  const std::function<void(const TrieNode*)> dfs = [&](const TrieNode* node) {
    if (out.contains(node->hash)) return;
    out.emplace(node->hash, encode_node(*node));
    for (const TrieChild& c : node->children) dfs(resolve(c));
  };
  dfs(root_.get());
}

void StateTrie::node_hashes(
    std::unordered_set<crypto::Digest, DigestHash>& out) const {
  require_sealed();
  if (!root_) return;
  const std::function<void(const TrieNode*)> dfs = [&](const TrieNode* node) {
    if (!out.insert(node->hash).second) return;
    for (const TrieChild& c : node->children) dfs(resolve(c));
  };
  dfs(root_.get());
}

StateTrie::NodeIndex StateTrie::build_node_index() const {
  require_sealed();
  NodeIndex index;
  if (!root_) return index;
  const std::function<void(const NodeRef&)> dfs = [&](const NodeRef& node) {
    if (!index.emplace(node->hash, node).second) return;
    for (const TrieChild& c : node->children) {
      resolve(c);  // ensures c.node
      dfs(c.node);
    }
  };
  dfs(root_);
  return index;
}

StateTrie StateTrie::from_nodes(const crypto::Digest& root_hash,
                                std::shared_ptr<const NodeStore> store,
                                Materialize mode) {
  StateTrie trie;
  if (root_hash == empty_root()) {
    trie.size_ = 0;
    return trie;
  }
  if (!store) throw common::ProtocolError("trie: null node store");
  if (mode == Materialize::Lazy) {
    trie.cold_ = store;
    TrieChild pseudo;
    pseudo.hash = root_hash;
    trie.root_ = (static_cast<void>(trie.resolve(pseudo)), pseudo.node);
    trie.size_ = std::nullopt;
    return trie;
  }
  std::size_t count = 0;
  const std::function<NodeRef(const crypto::Digest&)> build =
      [&](const crypto::Digest& hash) -> NodeRef {
    const auto it = store->find(hash);
    if (it == store->end()) {
      throw common::ProtocolError("trie: node missing from store");
    }
    if (hash_node(it->second) != hash) {
      throw common::ProtocolError("trie: node fails hash verification");
    }
    const TrieNodeWire wire = decode_node(it->second);
    TrieNode node;
    node.path = wire.path;
    node.has_value = wire.has_value;
    node.value = wire.value;
    node.version = wire.version;
    if (node.has_value) ++count;
    node.children.reserve(wire.children.size());
    for (const auto& [nibble, child_hash] : wire.children) {
      node.children.push_back(edge(nibble, build(child_hash)));
    }
    node.hash = hash;
    return std::make_shared<TrieNode>(std::move(node));
  };
  trie.root_ = build(root_hash);
  trie.size_ = count;
  return trie;
}

StateTrie StateTrie::graft(const crypto::Digest& root_hash,
                           const NodeStore& fresh, const NodeIndex& prior) {
  StateTrie trie;
  if (root_hash == empty_root()) {
    trie.size_ = 0;
    return trie;
  }
  const std::function<NodeRef(const crypto::Digest&)> build =
      [&](const crypto::Digest& hash) -> NodeRef {
    if (const auto hit = prior.find(hash); hit != prior.end()) {
      return hit->second;  // shared subtree: adopt, O(1)
    }
    const auto it = fresh.find(hash);
    if (it == fresh.end()) {
      throw common::ProtocolError("trie: delta node missing from store");
    }
    if (hash_node(it->second) != hash) {
      throw common::ProtocolError("trie: delta node fails hash verification");
    }
    const TrieNodeWire wire = decode_node(it->second);
    TrieNode node;
    node.path = wire.path;
    node.has_value = wire.has_value;
    node.value = wire.value;
    node.version = wire.version;
    node.children.reserve(wire.children.size());
    for (const auto& [nibble, child_hash] : wire.children) {
      node.children.push_back(edge(nibble, build(child_hash)));
    }
    node.hash = hash;
    return std::make_shared<TrieNode>(std::move(node));
  };
  trie.root_ = build(root_hash);
  trie.size_ = std::nullopt;  // counted on first size(); delta is O(new)
  return trie;
}

// ---- Proofs ----------------------------------------------------------------

common::Bytes StateProof::encode() const {
  common::Writer w;
  w.str(key);
  w.boolean(exists);
  w.bytes(value);
  w.u64(version);
  w.varint(nodes.size());
  for (const common::Bytes& n : nodes) w.bytes(n);
  return w.take();
}

StateProof StateProof::decode(common::BytesView data) {
  common::Reader r(data);
  StateProof p;
  p.key = r.str();
  p.exists = r.boolean();
  p.value = r.bytes();
  p.version = r.u64();
  const std::uint64_t count = r.varint();
  if (count > r.remaining()) {
    throw common::ProtocolError("state proof: node count overruns buffer");
  }
  p.nodes.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) p.nodes.push_back(r.bytes());
  if (!r.done()) throw common::ProtocolError("state proof: trailing bytes");
  return p;
}

StateProof StateTrie::prove(std::string_view key) const {
  require_sealed();
  StateProof proof;
  proof.key = std::string(key);
  const common::Bytes nibbles = to_nibbles(key);
  const TrieNode* node = root_.get();
  std::size_t pos = 0;
  while (node != nullptr) {
    proof.nodes.push_back(encode_node(*node));
    const std::size_t m = match_len(node->path, nibbles, pos);
    if (m < node->path.size()) return proof;  // dead end: exclusion
    pos += m;
    if (pos == nibbles.size()) {
      if (node->has_value) {
        proof.exists = true;
        proof.value = node->value;
        proof.version = node->version;
      }
      return proof;
    }
    const auto it = find_child(node->children, nibbles[pos]);
    if (it == node->children.end()) return proof;  // dead end: exclusion
    ++pos;
    node = resolve(*it);
  }
  return proof;  // empty trie: exclusion with no nodes
}

bool StateTrie::verify_proof(const crypto::Digest& root,
                             const StateProof& proof) {
  if (proof.nodes.empty()) {
    // Only the empty trie excludes a key with zero nodes.
    return !proof.exists && root == empty_root();
  }
  const common::Bytes nibbles = to_nibbles(proof.key);
  crypto::Digest expected = root;
  std::size_t pos = 0;
  try {
    for (std::size_t i = 0; i < proof.nodes.size(); ++i) {
      const bool last = i + 1 == proof.nodes.size();
      if (hash_node(proof.nodes[i]) != expected) return false;
      const TrieNodeWire wire = decode_node(proof.nodes[i]);
      const std::size_t limit =
          std::min(wire.path.size(), nibbles.size() - pos);
      std::size_t m = 0;
      while (m < limit && wire.path[m] == nibbles[pos + m]) ++m;
      if (m < wire.path.size()) {
        // Run diverges from (or outlasts) the key: a genuine dead end.
        return last && !proof.exists;
      }
      pos += m;
      if (pos == nibbles.size()) {
        if (!last) return false;  // the walk must stop where the key does
        if (proof.exists) {
          return wire.has_value && wire.value == proof.value &&
                 wire.version == proof.version;
        }
        return !wire.has_value;
      }
      const auto it = std::find_if(
          wire.children.begin(), wire.children.end(),
          [&](const auto& c) { return c.first == nibbles[pos]; });
      if (it == wire.children.end()) {
        return last && !proof.exists;  // no edge to follow: exclusion
      }
      expected = it->second;
      ++pos;
    }
  } catch (const common::Error&) {
    return false;  // malformed node in the path
  }
  return false;  // chain continues past the supplied nodes
}

}  // namespace veil::ledger
