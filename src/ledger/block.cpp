#include "ledger/block.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace veil::ledger {

namespace {

// Merkle root over the transactions' encoded bytes (the leaves).
crypto::Digest tx_root_of(const std::vector<common::Bytes>& encodings) {
  if (encodings.empty()) {
    // Empty blocks are legal (config blocks, heartbeats).
    return crypto::sha256(std::string_view("veil.block.empty"));
  }
  return crypto::MerkleTree::build(encodings).root();
}

crypto::Digest compute_tx_root(const std::vector<Transaction>& txs) {
  std::vector<common::Bytes> leaves;
  leaves.reserve(txs.size());
  for (const Transaction& tx : txs) leaves.push_back(tx.encode());
  return tx_root_of(leaves);
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

}  // namespace

common::Bytes BlockHeader::encode() const {
  common::Writer w;
  w.u64(height);
  w.raw(common::BytesView(previous_hash.data(), previous_hash.size()));
  w.raw(common::BytesView(tx_root.data(), tx_root.size()));
  w.u64(timestamp);
  return w.take();
}

crypto::Digest BlockHeader::hash() const { return crypto::sha256(encode()); }

Block Block::make(std::uint64_t height, const crypto::Digest& previous_hash,
                  std::vector<Transaction> txs, common::SimTime timestamp) {
  Block block;
  block.header.height = height;
  block.header.previous_hash = previous_hash;
  block.header.timestamp = timestamp;
  block.transactions = std::move(txs);
  block.header.tx_root = compute_tx_root(block.transactions);
  return block;
}

bool Block::body_matches_header() const {
  return compute_tx_root(transactions) == header.tx_root;
}

common::Bytes Block::encode() const {
  common::Writer w;
  w.bytes(header.encode());
  w.varint(transactions.size());
  for (const Transaction& tx : transactions) w.bytes(tx.encode());
  return w.take();
}

Block Block::decode(common::BytesView data) {
  common::Reader r(data);
  Block block;
  const common::Bytes hdr = r.bytes();
  common::Reader hr(hdr);
  block.header.height = hr.u64();
  common::Bytes d = hr.raw(crypto::kSha256DigestSize);
  std::copy(d.begin(), d.end(), block.header.previous_hash.begin());
  d = hr.raw(crypto::kSha256DigestSize);
  std::copy(d.begin(), d.end(), block.header.tx_root.begin());
  block.header.timestamp = hr.u64();
  if (!hr.done()) throw common::LedgerError("block: trailing header bytes");

  const std::uint64_t n = r.varint();
  if (n > r.remaining()) {
    throw common::LedgerError("block: transaction count overruns buffer");
  }
  std::vector<common::Bytes> encodings;
  encodings.reserve(n);
  std::size_t canonical_size =
      varint_size(hdr.size()) + hdr.size() + varint_size(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    encodings.push_back(r.bytes());
    canonical_size += varint_size(encodings.back().size()) +
                      encodings.back().size();
  }
  if (!r.done()) throw common::LedgerError("block: trailing bytes");
  // Every length prefix must be minimal, so the received bytes are the
  // one encoding of this block and can be logged as they are.
  if (canonical_size != data.size()) {
    throw common::LedgerError("block: non-minimal length prefix");
  }
  // The leaves are the received transaction bytes: a body that does not
  // reproduce the header's root is rejected here, before any replica
  // re-encodes it.
  if (tx_root_of(encodings) != block.header.tx_root) {
    throw common::LedgerError("block: body does not match header root");
  }
  block.transactions.reserve(n);
  for (const common::Bytes& enc : encodings) {
    block.transactions.push_back(Transaction::decode(enc));
  }
  return block;
}

}  // namespace veil::ledger
