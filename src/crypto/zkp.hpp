// Sigma-protocol zero-knowledge proofs (non-interactive via Fiat-Shamir).
//
// Two proof systems cover the paper's ZKP uses (§2.1, §2.2):
//
//  * DlogProof — proof of knowledge of a discrete log. This is "ZKP of
//    identity": prove you hold the secret key behind a public key (or an
//    Idemix credential attribute) without producing a linkable signature.
//    Each proof is randomized, so two proofs by the same party are
//    unlinkable unless the same context string is reused deliberately.
//
//  * RangeProof — bit-decomposition proof that a Pedersen-committed value
//    lies in [0, 2^n). Composed with the homomorphism this yields "proof
//    of sufficient funds": prove balance - amount >= 0 without revealing
//    the balance (the paper's boolean-affirmation example).
//
// These are textbook sigma protocols (Schnorr PoK; CDS OR-composition for
// bit proofs), which matches the paper's observation that ZKPs must be
// purpose-built per scenario and are costly relative to symmetric crypto.
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/commitment.hpp"
#include "crypto/group.hpp"

namespace veil::crypto {

/// Non-interactive Schnorr proof of knowledge of x such that y = base^x.
struct DlogProof {
  BigInt commitment;  // t = base^k
  BigInt response;    // s = k + c*x mod q

  common::Bytes encode() const;
  static DlogProof decode(common::BytesView data);
};

/// Prove knowledge of `secret` for statement y = base^secret. `context`
/// binds the proof to a session/message (prevents replay).
DlogProof prove_dlog(const Group& group, const BigInt& base,
                     const BigInt& secret, common::BytesView context,
                     common::Rng& rng);

bool verify_dlog(const Group& group, const BigInt& base, const BigInt& y,
                 const DlogProof& proof, common::BytesView context);

/// OR-proof that a Pedersen commitment C opens to 0 or to 1 (CDS
/// composition of two Schnorr proofs, one simulated).
struct BitProof {
  BigInt t0, t1;        // commitments of the two branches
  BigInt c0, c1;        // split challenges, c0 + c1 == H(...)
  BigInt s0, s1;        // responses

  common::Bytes encode() const;
  static BitProof decode(common::BytesView data);
};

BitProof prove_bit(const Group& group, const Commitment& commitment,
                   bool bit, const BigInt& blinding,
                   common::BytesView context, common::Rng& rng);

bool verify_bit(const Group& group, const Commitment& commitment,
                const BitProof& proof, common::BytesView context);

/// Range proof: committed value lies in [0, 2^bit_count).
struct RangeProof {
  std::vector<Commitment> bit_commitments;
  std::vector<BitProof> bit_proofs;
  // Proof that C / prod(C_i^{2^i}) is a commitment to zero, i.e. knowledge
  // of the discrete log base h of the residue.
  DlogProof consistency;

  common::Bytes encode() const;
  static RangeProof decode(common::BytesView data, std::size_t bit_count);

  std::size_t encoded_size() const { return encode().size(); }
};

/// Prove that `opening.value` in `commitment` lies in [0, 2^bit_count).
/// Throws common::CryptoError if the value is out of range (a proof would
/// be impossible).
RangeProof prove_range(const Group& group, const Commitment& commitment,
                       const Opening& opening, std::size_t bit_count,
                       common::BytesView context, common::Rng& rng);

bool verify_range(const Group& group, const Commitment& commitment,
                  const RangeProof& proof, std::size_t bit_count,
                  common::BytesView context);

}  // namespace veil::crypto
