#include "ledger/transaction.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace veil::ledger {

namespace {

std::size_t body_size(const Transaction& tx) {
  using common::prefixed_size;
  using common::varint_size;
  std::size_t n = prefixed_size(tx.channel.size()) +
                  prefixed_size(tx.contract.size()) +
                  prefixed_size(tx.action.size());
  n += varint_size(tx.participants.size());
  for (const std::string& p : tx.participants) n += prefixed_size(p.size());
  n += varint_size(tx.reads.size());
  for (const ReadAccess& r : tx.reads) n += prefixed_size(r.key.size()) + 8;
  n += varint_size(tx.writes.size());
  for (const KvWrite& kv : tx.writes) {
    n += prefixed_size(kv.key.size()) + prefixed_size(kv.value.size()) + 1;
  }
  n += prefixed_size(tx.payload.size());
  n += varint_size(tx.hash_refs.size());
  for (const HashRef& ref : tx.hash_refs) {
    n += prefixed_size(ref.label.size()) + ref.digest.size();
  }
  return n + 8 + 8 + 1 + 1;  // timestamp, deadline, two flags
}

void write_body(const Transaction& tx, common::Writer& w) {
  w.str(tx.channel);
  w.str(tx.contract);
  w.str(tx.action);
  w.varint(tx.participants.size());
  for (const std::string& p : tx.participants) w.str(p);
  w.varint(tx.reads.size());
  for (const ReadAccess& r : tx.reads) {
    w.str(r.key);
    w.u64(r.version);
  }
  w.varint(tx.writes.size());
  for (const KvWrite& kv : tx.writes) {
    w.str(kv.key);
    w.bytes(kv.value);
    w.boolean(kv.is_delete);
  }
  w.bytes(tx.payload);
  w.varint(tx.hash_refs.size());
  for (const HashRef& ref : tx.hash_refs) {
    w.str(ref.label);
    w.raw(common::BytesView(ref.digest.data(), ref.digest.size()));
  }
  w.u64(tx.timestamp);
  w.u64(tx.deadline_us);
  w.boolean(tx.data_opaque);
  w.boolean(tx.parties_pseudonymous);
}

// Room to reserve for `count` elements read from `r`: every element takes
// at least one byte, so a forged count cannot reserve past the input.
std::size_t bounded(std::uint64_t count, const common::Reader& r) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining()));
}

}  // namespace

common::Bytes Transaction::body_encoding() const {
  common::Writer w(body_size(*this));
  write_body(*this, w);
  return w.take();
}

crypto::Digest Transaction::body_digest() const {
  return crypto::sha256(body_encoding());
}

std::string tx_id(const crypto::Digest& body_digest) {
  return common::to_hex(common::BytesView(body_digest.data(), 12));
}

std::string Transaction::id() const { return tx_id(body_digest()); }

std::size_t Transaction::encoded_size() const {
  std::size_t n = common::prefixed_size(body_size(*this)) +
                  common::varint_size(endorsements.size());
  for (const Endorsement& e : endorsements) {
    n += common::prefixed_size(e.endorser.size()) +
         common::prefixed_size(e.key.encoded_size()) +
         common::prefixed_size(e.signature.encoded_size());
  }
  return n;
}

void Transaction::encode_to(common::Writer& w) const {
  // The body goes straight into `w` behind its length prefix.
  w.varint(body_size(*this));
  write_body(*this, w);
  w.varint(endorsements.size());
  for (const Endorsement& e : endorsements) {
    w.str(e.endorser);
    w.varint(e.key.encoded_size());
    e.key.encode_to(w);
    w.varint(e.signature.encoded_size());
    e.signature.encode_to(w);
  }
}

common::Bytes Transaction::encode() const {
  common::Writer w(encoded_size());
  encode_to(w);
  return w.take();
}

Transaction Transaction::decode(common::BytesView data) {
  common::Reader outer(data);
  common::Reader r(outer.bytes_view());

  Transaction tx;
  tx.channel = r.str();
  tx.contract = r.str();
  tx.action = r.str();
  const std::uint64_t n_parties = r.varint();
  tx.participants.reserve(bounded(n_parties, r));
  for (std::uint64_t i = 0; i < n_parties; ++i) {
    tx.participants.push_back(r.str());
  }
  const std::uint64_t n_reads = r.varint();
  tx.reads.reserve(bounded(n_reads, r));
  for (std::uint64_t i = 0; i < n_reads; ++i) {
    ReadAccess& ra = tx.reads.emplace_back();
    ra.key = r.str();
    ra.version = r.u64();
  }
  const std::uint64_t n_writes = r.varint();
  tx.writes.reserve(bounded(n_writes, r));
  for (std::uint64_t i = 0; i < n_writes; ++i) {
    KvWrite& kv = tx.writes.emplace_back();
    kv.key = r.str();
    kv.value = r.bytes();
    kv.is_delete = r.boolean();
  }
  tx.payload = r.bytes();
  const std::uint64_t n_refs = r.varint();
  tx.hash_refs.reserve(bounded(n_refs, r));
  for (std::uint64_t i = 0; i < n_refs; ++i) {
    HashRef& ref = tx.hash_refs.emplace_back();
    ref.label = r.str();
    const common::BytesView d = r.raw_view(crypto::kSha256DigestSize);
    std::copy(d.begin(), d.end(), ref.digest.begin());
  }
  tx.timestamp = r.u64();
  tx.deadline_us = r.u64();
  tx.data_opaque = r.boolean();
  tx.parties_pseudonymous = r.boolean();
  if (!r.done()) {
    throw common::LedgerError("transaction: trailing bytes after the body");
  }

  const std::uint64_t n_endorse = outer.varint();
  tx.endorsements.reserve(bounded(n_endorse, outer));
  for (std::uint64_t i = 0; i < n_endorse; ++i) {
    Endorsement& e = tx.endorsements.emplace_back();
    e.endorser = outer.str();
    e.key = crypto::PublicKey::decode(outer.bytes_view());
    e.signature = crypto::Signature::decode(outer.bytes_view());
  }
  if (!outer.done()) {
    throw common::LedgerError(
        "transaction: trailing bytes after the endorsements");
  }
  // Every field was read exactly, so the input is longer than the
  // canonical encoding only if some length prefix was not minimal.
  if (tx.encoded_size() != data.size()) {
    throw common::LedgerError("transaction: non-minimal length prefix");
  }
  return tx;
}

void Transaction::endorse(const std::string& endorser,
                          const crypto::KeyPair& keypair) {
  const crypto::Digest digest = body_digest();
  endorsements.push_back(Endorsement{
      endorser, keypair.public_key(),
      keypair.sign(common::BytesView(digest.data(), digest.size()))});
}

bool Transaction::endorsements_valid(const crypto::Group& group) const {
  const crypto::Digest digest = body_digest();
  const common::BytesView msg(digest.data(), digest.size());
  for (const Endorsement& e : endorsements) {
    if (!crypto::verify(group, e.key, msg, e.signature)) return false;
  }
  return true;
}

std::uint64_t Transaction::data_size() const {
  std::uint64_t total = payload.size();
  for (const KvWrite& kv : writes) total += kv.value.size();
  return total;
}

void record_visibility(net::LeakageAuditor& auditor,
                       const net::Principal& observer, const Transaction& tx) {
  record_visibility(auditor, observer, tx, tx.id());
}

void record_visibility(net::LeakageAuditor& auditor,
                       const net::Principal& observer, const Transaction& tx,
                       const std::string& id) {
  // "tx/<id>/<what>", built at its final size.
  const auto label = [&id](std::string_view what) {
    std::string out;
    out.reserve(4 + id.size() + what.size());
    out.append("tx/").append(id).append("/").append(what);
    return out;
  };
  auditor.record(observer, label("data"), tx.data_size(), !tx.data_opaque);
  std::uint64_t party_bytes = 0;
  for (const std::string& p : tx.participants) party_bytes += p.size();
  auditor.record(observer, label("parties"), party_bytes,
                 !tx.parties_pseudonymous);
  auditor.record(observer, label("metadata"),
                 tx.channel.size() + tx.contract.size() + tx.action.size());
}

}  // namespace veil::ledger
