// A Schnorr signature that satisfies the group equation under a public
// key outside the order-q subgroup, for the key-membership tests.
//
// y' = p - y = -y has order 2q. Whenever the challenge e is even,
// y'^e = y^e, so the holder of log_g(y) can answer e for y' exactly as
// for y: g^s * y'^e == R and e == H(R || y' || m) both hold. Only the
// subgroup check on y' rejects such a signature.
#pragma once

#include "crypto/signature.hpp"

namespace veil::crypto::testing {

struct NonMemberSignature {
  PublicKey key;
  Signature sig;
};

inline NonMemberSignature sign_as_non_member(const Group& group,
                                             const KeyPair& kp,
                                             common::BytesView message) {
  const BigInt y_bad = group.p() - kp.public_key().y;
  for (BigInt k(1);; k += BigInt(1)) {
    const BigInt r = group.pow_g(k);
    const BigInt e = schnorr_challenge(group, r, y_bad, message);
    if (e.is_odd()) continue;
    const BigInt xe = (kp.secret() * e) % group.q();
    const BigInt s = (k + group.q() - xe) % group.q();
    return {PublicKey{y_bad}, Signature{e, s, r}};
  }
}

}  // namespace veil::crypto::testing
