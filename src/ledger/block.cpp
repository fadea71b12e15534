#include "ledger/block.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace veil::ledger {

namespace {

// Merkle root over the transactions' encoded bytes (the leaves).
crypto::Digest tx_root_of(std::span<const common::BytesView> encodings) {
  if (encodings.empty()) {
    // Empty blocks are legal (config blocks, heartbeats).
    return crypto::sha256(std::string_view("veil.block.empty"));
  }
  return crypto::MerkleTree::build(encodings).root();
}

std::vector<std::size_t> encoded_sizes(const std::vector<Transaction>& txs) {
  std::vector<std::size_t> sizes;
  sizes.reserve(txs.size());
  for (const Transaction& tx : txs) sizes.push_back(tx.encoded_size());
  return sizes;
}

// Encodes every transaction back to back into one exact-size buffer and
// hashes the leaves as views into it.
crypto::Digest compute_tx_root(const std::vector<Transaction>& txs) {
  const std::vector<std::size_t> sizes = encoded_sizes(txs);
  std::size_t total = 0;
  for (const std::size_t n : sizes) total += n;
  common::Writer w(total);
  for (const Transaction& tx : txs) tx.encode_to(w);
  std::vector<common::BytesView> leaves;
  leaves.reserve(txs.size());
  const common::BytesView all(w.data());
  std::size_t offset = 0;
  for (const std::size_t n : sizes) {
    leaves.push_back(all.subspan(offset, n));
    offset += n;
  }
  return tx_root_of(leaves);
}

}  // namespace

common::Bytes BlockHeader::encode() const {
  common::Writer w(8 + previous_hash.size() + tx_root.size() + 8);
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
  const common::Bytes hdr = header.encode();
  const std::vector<std::size_t> sizes = encoded_sizes(transactions);
  std::size_t total =
      common::prefixed_size(hdr.size()) + common::varint_size(sizes.size());
  for (const std::size_t n : sizes) total += common::prefixed_size(n);
  common::Writer w(total);
  w.bytes(hdr);
  w.varint(transactions.size());
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    w.varint(sizes[i]);
    transactions[i].encode_to(w);
  }
  return w.take();
}

Block Block::decode(common::BytesView data) {
  common::Reader r(data);
  Block block;
  const common::BytesView hdr = r.bytes_view();
  common::Reader hr(hdr);
  block.header.height = hr.u64();
  common::BytesView d = hr.raw_view(crypto::kSha256DigestSize);
  std::copy(d.begin(), d.end(), block.header.previous_hash.begin());
  d = hr.raw_view(crypto::kSha256DigestSize);
  std::copy(d.begin(), d.end(), block.header.tx_root.begin());
  block.header.timestamp = hr.u64();
  if (!hr.done()) throw common::LedgerError("block: trailing header bytes");

  const std::uint64_t n = r.varint();
  if (n > r.remaining()) {
    throw common::LedgerError("block: transaction count overruns buffer");
  }
  // The leaves are views into `data`: each transaction is hashed and
  // decoded where it arrived, never copied out first.
  std::vector<common::BytesView> encodings;
  encodings.reserve(n);
  std::size_t canonical_size = common::prefixed_size(hdr.size()) +
                               common::varint_size(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    encodings.push_back(r.bytes_view());
    canonical_size += common::prefixed_size(encodings.back().size());
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
  for (const common::BytesView enc : encodings) {
    block.transactions.push_back(Transaction::decode(enc));
  }
  return block;
}

}  // namespace veil::ledger
