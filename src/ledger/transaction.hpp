// Platform-agnostic transaction model.
//
// One transaction shape serves all three platform adapters:
//  * Fabric-style: read/write sets + endorsements, plaintext payload.
//  * Corda-style:  payload is a serialized (possibly torn-off) tx body,
//    participants may be one-time keys.
//  * Quorum-style: payload is a 32-byte hash of the privately distributed
//    data; `data_opaque` is set.
//
// Two flags drive leakage accounting rather than crypto: they declare
// whether the payload/writes are already an opaque form (ciphertext or
// hash) and whether the participant list is pseudonymous. The platform
// adapters set them to mirror what their real counterparts put on the
// wire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "net/leakage.hpp"

namespace veil::ledger {

/// A versioned read performed by contract execution (MVCC validation).
struct ReadAccess {
  std::string key;
  std::uint64_t version = 0;

  bool operator==(const ReadAccess&) const = default;
};

struct KvWrite {
  std::string key;
  common::Bytes value;
  bool is_delete = false;

  bool operator==(const KvWrite&) const = default;
};

/// Reference to data held off-chain: only the digest is on the ledger.
struct HashRef {
  std::string label;
  crypto::Digest digest{};

  bool operator==(const HashRef&) const = default;
};

struct Endorsement {
  std::string endorser;  // org or party name (may be a pseudonym)
  crypto::PublicKey key;
  crypto::Signature signature;  // over Transaction::body_digest()
};

struct Transaction {
  std::string channel;
  std::string contract;
  std::string action;
  std::vector<std::string> participants;
  std::vector<ReadAccess> reads;
  std::vector<KvWrite> writes;
  common::Bytes payload;
  std::vector<HashRef> hash_refs;
  common::SimTime timestamp = 0;
  /// Absolute deadline stamped at submission (0 = none). Every pipeline
  /// stage drops the transaction once this passes; part of the signed
  /// body so an orderer cannot stretch a TTL to resurrect stale work.
  common::SimTime deadline_us = 0;

  // Leakage-accounting declarations (see file comment).
  bool data_opaque = false;
  bool parties_pseudonymous = false;

  std::vector<Endorsement> endorsements;

  /// Canonical encoding of the signed portion (everything but
  /// endorsements).
  common::Bytes body_encoding() const;
  crypto::Digest body_digest() const;

  /// Transaction id: hex digest of the body, tx_id(body_digest()).
  std::string id() const;

  /// Full encoding including endorsements.
  common::Bytes encode() const;
  static Transaction decode(common::BytesView data);

  /// Add an endorsement by signing the body with `keypair`.
  void endorse(const std::string& endorser, const crypto::KeyPair& keypair);

  /// Verify every endorsement signature.
  bool endorsements_valid(const crypto::Group& group) const;

  /// Total bytes of payload + write values (the "data" of the tx).
  std::uint64_t data_size() const;
};

/// The transaction id for a body digest (its first 24 hex digits). A
/// pipeline stage hashes the body it holds once and derives the id here,
/// rather than re-encoding and re-hashing the body for every lookup.
/// Transaction deliberately caches neither: an orderer (or a test) may
/// rewrite its public fields after construction.
std::string tx_id(const crypto::Digest& body_digest);

/// Record into `auditor` what `observer` learns when it sees this
/// transaction in full (as the ordering service or a ledger peer does).
/// `id` is tx.id(), passed by stages that already hold it.
void record_visibility(net::LeakageAuditor& auditor,
                       const net::Principal& observer, const Transaction& tx,
                       const std::string& id);
void record_visibility(net::LeakageAuditor& auditor,
                       const net::Principal& observer, const Transaction& tx);

}  // namespace veil::ledger
