#include "crypto/zkp.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace veil::crypto {

namespace {

BigInt challenge_of(const Group& group, std::initializer_list<const BigInt*> parts,
                    common::BytesView context) {
  common::Writer w;
  for (const BigInt* part : parts) w.bytes(part->to_bytes_be());
  w.bytes(context);
  return group.hash_to_scalar(w.data());
}

}  // namespace

common::Bytes DlogProof::encode() const {
  common::Writer w;
  w.bytes(commitment.to_bytes_be());
  w.bytes(response.to_bytes_be());
  return w.take();
}

DlogProof DlogProof::decode(common::BytesView data) {
  common::Reader r(data);
  DlogProof p;
  p.commitment = BigInt::from_bytes_be(r.bytes());
  p.response = BigInt::from_bytes_be(r.bytes());
  return p;
}

DlogProof prove_dlog(const Group& group, const BigInt& base,
                     const BigInt& secret, common::BytesView context,
                     common::Rng& rng) {
  const BigInt k = group.random_scalar(rng);
  const BigInt t = group.pow(base, k);
  const BigInt y = group.pow(base, secret);
  const BigInt c = challenge_of(group, {&base, &y, &t}, context);
  const BigInt s = (k + c * (secret % group.q())) % group.q();
  return DlogProof{t, s};
}

bool verify_dlog(const Group& group, const BigInt& base, const BigInt& y,
                 const DlogProof& proof, common::BytesView context) {
  if (proof.response >= group.q()) return false;
  if (!group.is_element(y) || !group.is_element(proof.commitment)) return false;
  const BigInt c = challenge_of(group, {&base, &y, &proof.commitment}, context);
  // base^s == t * y^c
  const BigInt lhs = group.pow(base, proof.response);
  const BigInt rhs = group.mul(proof.commitment, group.pow(y, c));
  return lhs == rhs;
}

common::Bytes BitProof::encode() const {
  common::Writer w;
  for (const BigInt* v : {&t0, &t1, &c0, &c1, &s0, &s1}) {
    w.bytes(v->to_bytes_be());
  }
  return w.take();
}

BitProof BitProof::decode(common::BytesView data) {
  common::Reader r(data);
  BitProof p;
  for (BigInt* v : {&p.t0, &p.t1, &p.c0, &p.c1, &p.s0, &p.s1}) {
    *v = BigInt::from_bytes_be(r.bytes());
  }
  return p;
}

BitProof prove_bit(const Group& group, const Commitment& commitment,
                   bool bit, const BigInt& blinding,
                   common::BytesView context, common::Rng& rng) {
  // Statement 0: C   = h^r      (bit == 0)
  // Statement 1: C/g = h^r      (bit == 1)
  const BigInt y0 = commitment.c;
  const BigInt y1 = group.mul(commitment.c, group.inv(group.g()));

  BitProof proof;
  const BigInt k = group.random_scalar(rng);

  if (!bit) {
    // Real proof on branch 0, simulate branch 1.
    proof.c1 = group.random_scalar(rng);
    proof.s1 = group.random_scalar(rng);
    // t1 = h^{s1} * y1^{-c1}
    proof.t1 = group.mul(group.pow_h(proof.s1),
                         group.inv(group.pow(y1, proof.c1)));
    proof.t0 = group.pow_h(k);
    const BigInt c = challenge_of(group, {&commitment.c, &proof.t0, &proof.t1},
                                  context);
    proof.c0 = (c + group.q() - (proof.c1 % group.q())) % group.q();
    proof.s0 = (k + proof.c0 * (blinding % group.q())) % group.q();
  } else {
    // Real proof on branch 1, simulate branch 0.
    proof.c0 = group.random_scalar(rng);
    proof.s0 = group.random_scalar(rng);
    proof.t0 = group.mul(group.pow_h(proof.s0),
                         group.inv(group.pow(y0, proof.c0)));
    proof.t1 = group.pow_h(k);
    const BigInt c = challenge_of(group, {&commitment.c, &proof.t0, &proof.t1},
                                  context);
    proof.c1 = (c + group.q() - (proof.c0 % group.q())) % group.q();
    proof.s1 = (k + proof.c1 * (blinding % group.q())) % group.q();
  }
  return proof;
}

bool verify_bit(const Group& group, const Commitment& commitment,
                const BitProof& proof, common::BytesView context) {
  const BigInt y0 = commitment.c;
  const BigInt y1 = group.mul(commitment.c, group.inv(group.g()));
  const BigInt c = challenge_of(group, {&commitment.c, &proof.t0, &proof.t1},
                                context);
  if ((proof.c0 + proof.c1) % group.q() != c) return false;
  // h^{s0} == t0 * y0^{c0}
  if (group.pow_h(proof.s0) !=
      group.mul(proof.t0, group.pow(y0, proof.c0))) {
    return false;
  }
  // h^{s1} == t1 * y1^{c1}
  if (group.pow_h(proof.s1) !=
      group.mul(proof.t1, group.pow(y1, proof.c1))) {
    return false;
  }
  return true;
}

common::Bytes RangeProof::encode() const {
  common::Writer w;
  w.varint(bit_commitments.size());
  for (const Commitment& c : bit_commitments) w.bytes(c.c.to_bytes_be());
  for (const BitProof& p : bit_proofs) w.bytes(p.encode());
  w.bytes(consistency.encode());
  return w.take();
}

RangeProof RangeProof::decode(common::BytesView data, std::size_t bit_count) {
  common::Reader r(data);
  RangeProof proof;
  const std::uint64_t n = r.varint();
  if (n != bit_count) {
    throw common::CryptoError("RangeProof::decode: bit count mismatch");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    proof.bit_commitments.push_back(
        Commitment{BigInt::from_bytes_be(r.bytes())});
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const common::Bytes b = r.bytes();
    proof.bit_proofs.push_back(BitProof::decode(b));
  }
  const common::Bytes b = r.bytes();
  proof.consistency = DlogProof::decode(b);
  return proof;
}

RangeProof prove_range(const Group& group, const Commitment& commitment,
                       const Opening& opening, std::size_t bit_count,
                       common::BytesView context, common::Rng& rng) {
  if (opening.value.bit_length() > bit_count) {
    throw common::CryptoError("prove_range: value out of range");
  }
  const Pedersen pedersen(group);
  RangeProof proof;

  // Commit to each bit of the value.
  std::vector<Opening> bit_openings;
  for (std::size_t i = 0; i < bit_count; ++i) {
    const BigInt bit_value(opening.value.bit(i) ? 1 : 0);
    auto [c, o] = pedersen.commit(bit_value, rng);
    proof.bit_commitments.push_back(c);
    bit_openings.push_back(o);
  }

  // Bind every sub-proof to the top-level commitment and context.
  common::Writer ctx;
  ctx.bytes(commitment.c.to_bytes_be());
  for (const Commitment& c : proof.bit_commitments) ctx.bytes(c.c.to_bytes_be());
  ctx.bytes(context);
  const common::Bytes bound_context = ctx.take();

  for (std::size_t i = 0; i < bit_count; ++i) {
    proof.bit_proofs.push_back(prove_bit(group, proof.bit_commitments[i],
                                         opening.value.bit(i),
                                         bit_openings[i].blinding,
                                         bound_context, rng));
  }

  // Residual blinding: r - sum(r_i * 2^i) mod q. The residue
  // C * prod(C_i^{2^i})^{-1} equals h^{residual}; prove its dlog base h.
  BigInt weighted;
  for (std::size_t i = 0; i < bit_count; ++i) {
    weighted = (weighted + (bit_openings[i].blinding << i)) % group.q();
  }
  const BigInt residual =
      ((opening.blinding % group.q()) + group.q() - weighted) % group.q();
  proof.consistency =
      prove_dlog(group, group.h(), residual, bound_context, rng);
  return proof;
}

bool verify_range(const Group& group, const Commitment& commitment,
                  const RangeProof& proof, std::size_t bit_count,
                  common::BytesView context) {
  if (proof.bit_commitments.size() != bit_count ||
      proof.bit_proofs.size() != bit_count) {
    return false;
  }
  common::Writer ctx;
  ctx.bytes(commitment.c.to_bytes_be());
  for (const Commitment& c : proof.bit_commitments) ctx.bytes(c.c.to_bytes_be());
  ctx.bytes(context);
  const common::Bytes bound_context = ctx.take();

  for (std::size_t i = 0; i < bit_count; ++i) {
    if (!verify_bit(group, proof.bit_commitments[i], proof.bit_proofs[i],
                    bound_context)) {
      return false;
    }
  }

  // residue = C * prod(C_i^{2^i})^{-1} must be h^{residual}.
  BigInt product(1);
  for (std::size_t i = 0; i < bit_count; ++i) {
    product = group.mul(product,
                        group.pow(proof.bit_commitments[i].c, BigInt(1) << i));
  }
  const BigInt residue = group.mul(commitment.c, group.inv(product));
  return verify_dlog(group, group.h(), residue, proof.consistency,
                     bound_context);
}

}  // namespace veil::crypto
