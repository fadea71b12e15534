#include "ledger/transaction.hpp"

#include "common/serialize.hpp"

namespace veil::ledger {

common::Bytes Transaction::body_encoding() const {
  common::Writer w;
  w.str(channel);
  w.str(contract);
  w.str(action);
  w.varint(participants.size());
  for (const std::string& p : participants) w.str(p);
  w.varint(reads.size());
  for (const ReadAccess& r : reads) {
    w.str(r.key);
    w.u64(r.version);
  }
  w.varint(writes.size());
  for (const KvWrite& kv : writes) {
    w.str(kv.key);
    w.bytes(kv.value);
    w.boolean(kv.is_delete);
  }
  w.bytes(payload);
  w.varint(hash_refs.size());
  for (const HashRef& ref : hash_refs) {
    w.str(ref.label);
    w.raw(common::BytesView(ref.digest.data(), ref.digest.size()));
  }
  w.u64(timestamp);
  w.u64(deadline_us);
  w.boolean(data_opaque);
  w.boolean(parties_pseudonymous);
  return w.take();
}

crypto::Digest Transaction::body_digest() const {
  return crypto::sha256(body_encoding());
}

std::string tx_id(const crypto::Digest& body_digest) {
  return common::to_hex(common::BytesView(body_digest.data(), 12));
}

std::string Transaction::id() const { return tx_id(body_digest()); }

common::Bytes Transaction::encode() const {
  common::Writer w;
  w.bytes(body_encoding());
  w.varint(endorsements.size());
  for (const Endorsement& e : endorsements) {
    w.str(e.endorser);
    w.bytes(e.key.encode());
    w.bytes(e.signature.encode());
  }
  return w.take();
}

Transaction Transaction::decode(common::BytesView data) {
  common::Reader outer(data);
  const common::Bytes body = outer.bytes();
  common::Reader r(body);

  Transaction tx;
  tx.channel = r.str();
  tx.contract = r.str();
  tx.action = r.str();
  const std::uint64_t n_parties = r.varint();
  for (std::uint64_t i = 0; i < n_parties; ++i) tx.participants.push_back(r.str());
  const std::uint64_t n_reads = r.varint();
  for (std::uint64_t i = 0; i < n_reads; ++i) {
    ReadAccess ra;
    ra.key = r.str();
    ra.version = r.u64();
    tx.reads.push_back(std::move(ra));
  }
  const std::uint64_t n_writes = r.varint();
  for (std::uint64_t i = 0; i < n_writes; ++i) {
    KvWrite kv;
    kv.key = r.str();
    kv.value = r.bytes();
    kv.is_delete = r.boolean();
    tx.writes.push_back(std::move(kv));
  }
  tx.payload = r.bytes();
  const std::uint64_t n_refs = r.varint();
  for (std::uint64_t i = 0; i < n_refs; ++i) {
    HashRef ref;
    ref.label = r.str();
    const common::Bytes d = r.raw(crypto::kSha256DigestSize);
    std::copy(d.begin(), d.end(), ref.digest.begin());
    tx.hash_refs.push_back(std::move(ref));
  }
  tx.timestamp = r.u64();
  tx.deadline_us = r.u64();
  tx.data_opaque = r.boolean();
  tx.parties_pseudonymous = r.boolean();

  const std::uint64_t n_endorse = outer.varint();
  for (std::uint64_t i = 0; i < n_endorse; ++i) {
    Endorsement e;
    e.endorser = outer.str();
    const common::Bytes key = outer.bytes();
    e.key = crypto::PublicKey::decode(key);
    const common::Bytes sig = outer.bytes();
    e.signature = crypto::Signature::decode(sig);
    tx.endorsements.push_back(std::move(e));
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
  const std::string prefix = "tx/" + id + "/";
  auditor.record(observer, prefix + "data", tx.data_size(), !tx.data_opaque);
  std::uint64_t party_bytes = 0;
  for (const std::string& p : tx.participants) party_bytes += p.size();
  auditor.record(observer, prefix + "parties", party_bytes,
                 !tx.parties_pseudonymous);
  auditor.record(observer, prefix + "metadata",
                 tx.channel.size() + tx.contract.size() + tx.action.size());
}

}  // namespace veil::ledger
