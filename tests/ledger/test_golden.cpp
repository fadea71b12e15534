// Golden bytes: the exact encodings of a fixed transaction, block, key,
// signature and Schnorr challenge preimage. The serializers build these
// buffers in place at their exact size; every wire, WAL, hash and
// signature byte must stay what it was, so the hex here is fixed and
// any change to it is a format change.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "crypto/signature.hpp"
#include "ledger/block.hpp"

namespace veil::ledger {
namespace {

using common::Bytes;
using common::from_hex;
using common::to_hex;

constexpr const char* kPublicKeyHex =
    "402af563910b43b3f0769c41a377b975f22c248d39076140042cc63babdb0378"
    "6eb055fb4820f727ae9e2abfa5589a2edb7a30299daac0c01c68d8aeda5dd95d"
    "74";

constexpr const char* kSignatureHex =
    "141c1ba76351c11230b83cc23cca86e8841891d8d31467f3aa538fd7b299aa56"
    "f6513a114b64777f0e6b40583849911112744706b28ec8ff388a0657bae1a053"
    "776cda29a9d4c745b0f5e65ff0c78f212272cc7a217950c4a7d790124f550723"
    "eb9e4643d9b17c54c23b33";

constexpr const char* kChallengePreimageHex =
    "40583849911112744706b28ec8ff388a0657bae1a053776cda29a9d4c745b0f5"
    "e65ff0c78f212272cc7a217950c4a7d790124f550723eb9e4643d9b17c54c23b"
    "33402af563910b43b3f0769c41a377b975f22c248d39076140042cc63babdb03"
    "786eb055fb4820f727ae9e2abfa5589a2edb7a30299daac0c01c68d8aeda5dd9"
    "5d7420a9b61ac2567364f67b56ea4db17187503dff240847ec509c907b5a9fa2"
    "adeb55";

constexpr const char* kTransactionHex =
    "840106676f6c64656e05747261646506736574746c65020542616e6b41054261"
    "6e6b420106616363742f6107000000000000000206616363742f610301020300"
    "06616363742f620001057465726d730103646f63139d544b821b13ebea14f1b0"
    "fe18577222e415c2966e3a3511c4196055232202d2040000000000009f860100"
    "000000000001020542616e6b4141402af563910b43b3f0769c41a377b975f22c"
    "248d39076140042cc63babdb03786eb055fb4820f727ae9e2abfa5589a2edb7a"
    "30299daac0c01c68d8aeda5dd95d746b141c1ba76351c11230b83cc23cca86e8"
    "841891d8d31467f3aa538fd7b299aa56f6513a114b64777f0e6b405838499111"
    "12744706b28ec8ff388a0657bae1a053776cda29a9d4c745b0f5e65ff0c78f21"
    "2272cc7a217950c4a7d790124f550723eb9e4643d9b17c54c23b330542616e6b"
    "42403f8dc5919b9ed1240fdac7c1f25d46dd64a558235391ced611339f796c94"
    "c5518264e235ba1f5e7790fd8408571faf32d21669f6dd4741c54562d574618c"
    "57566b147a4b3268abc56189697700080b71e7b885fbfe6c1407a1c0c8b4288a"
    "55de42e2ebd2eb756f12f2f092404b3018b78c13f9f0099fca3fc6ebd7427df6"
    "a644a579d356c2f88cf65aeb7bd4c4890dbddb60bffc555a5eb44977fd336a7a"
    "16016f00406d8ff8766824c2279d";

constexpr const char* kBlockHex =
    "500500000000000000477d1638ca76a067ddbc30d630696c21ac8c2a3aa80c61"
    "41f12049de6f4e6b6b0e16d2073f7439c0e148f9771226ad83c11a5dc22037e9"
    "b03dbab3785142b560921000000000000001ee03840106676f6c64656e057472"
    "61646506736574746c65020542616e6b410542616e6b420106616363742f6107"
    "000000000000000206616363742f61030102030006616363742f620001057465"
    "726d730103646f63139d544b821b13ebea14f1b0fe18577222e415c2966e3a35"
    "11c4196055232202d2040000000000009f860100000000000001020542616e6b"
    "4141402af563910b43b3f0769c41a377b975f22c248d39076140042cc63babdb"
    "03786eb055fb4820f727ae9e2abfa5589a2edb7a30299daac0c01c68d8aeda5d"
    "d95d746b141c1ba76351c11230b83cc23cca86e8841891d8d31467f3aa538fd7"
    "b299aa56f6513a114b64777f0e6b40583849911112744706b28ec8ff388a0657"
    "bae1a053776cda29a9d4c745b0f5e65ff0c78f212272cc7a217950c4a7d79012"
    "4f550723eb9e4643d9b17c54c23b330542616e6b42403f8dc5919b9ed1240fda"
    "c7c1f25d46dd64a558235391ced611339f796c94c5518264e235ba1f5e7790fd"
    "8408571faf32d21669f6dd4741c54562d574618c57566b147a4b3268abc56189"
    "697700080b71e7b885fbfe6c1407a1c0c8b4288a55de42e2ebd2eb756f12f2f0"
    "92404b3018b78c13f9f0099fca3fc6ebd7427df6a644a579d356c2f88cf65aeb"
    "7bd4c4890dbddb60bffc555a5eb44977fd336a7a16016f00406d8ff8766824c2"
    "279d";

constexpr const char* kTransactionId = "a9b61ac2567364f67b56ea4d";

struct Fixture {
  crypto::KeyPair a;
  crypto::KeyPair b;
  Transaction tx;
};

// Keys from a fixed seed in the test group; a transaction that exercises
// every field, endorsed by both keys.
Fixture make_fixture() {
  const crypto::Group& group = crypto::Group::test_group();
  common::Rng rng(0x601d);
  crypto::KeyPair a = crypto::KeyPair::generate(group, rng);
  crypto::KeyPair b = crypto::KeyPair::generate(group, rng);
  Transaction tx;
  tx.channel = "golden";
  tx.contract = "trade";
  tx.action = "settle";
  tx.participants = {"BankA", "BankB"};
  tx.reads = {{"acct/a", 7}};
  tx.writes = {{"acct/a", Bytes{1, 2, 3}, false}, {"acct/b", {}, true}};
  tx.payload = common::to_bytes("terms");
  tx.hash_refs = {{"doc", crypto::sha256(std::string_view("doc"))}};
  tx.timestamp = 1234;
  tx.deadline_us = 99999;
  tx.parties_pseudonymous = true;
  tx.endorse("BankA", a);
  tx.endorse("BankB", b);
  return {std::move(a), std::move(b), std::move(tx)};
}

TEST(Golden, PublicKeyEncoding) {
  const Fixture f = make_fixture();
  EXPECT_EQ(to_hex(f.a.public_key().encode()), kPublicKeyHex);
  EXPECT_EQ(f.a.public_key().encoded_size(), f.a.public_key().encode().size());
}

TEST(Golden, SignatureEncoding) {
  const Fixture f = make_fixture();
  const crypto::Signature& sig = f.tx.endorsements[0].signature;
  EXPECT_EQ(to_hex(sig.encode()), kSignatureHex);
  EXPECT_EQ(sig.encoded_size(), sig.encode().size());
}

TEST(Golden, SchnorrChallengePreimage) {
  // The challenge hashes R || y || m, each length-prefixed: recomputing
  // it from the pinned preimage pins the preimage's bytes.
  const Fixture f = make_fixture();
  const crypto::Group& group = crypto::Group::test_group();
  const crypto::Signature& sig = f.tx.endorsements[0].signature;
  const crypto::Digest digest = f.tx.body_digest();
  const crypto::BigInt challenge = crypto::schnorr_challenge(
      group, sig.commitment, f.a.public_key().y,
      common::BytesView(digest.data(), digest.size()));
  EXPECT_EQ(challenge, group.hash_to_scalar(from_hex(kChallengePreimageHex)));
  EXPECT_EQ(challenge, sig.challenge);
}

TEST(Golden, TransactionEncodingWithTwoEndorsements) {
  const Fixture f = make_fixture();
  const Bytes enc = f.tx.encode();
  EXPECT_EQ(to_hex(enc), kTransactionHex);
  EXPECT_EQ(f.tx.encoded_size(), enc.size());
  EXPECT_EQ(f.tx.id(), kTransactionId);
  EXPECT_EQ(Transaction::decode(enc).encode(), enc);
}

TEST(Golden, BlockEncoding) {
  const Fixture f = make_fixture();
  const Block block = Block::make(
      5, crypto::sha256(std::string_view("golden.prev")), {f.tx}, 4242);
  const Bytes enc = block.encode();
  EXPECT_EQ(to_hex(enc), kBlockHex);
  EXPECT_EQ(Block::decode(enc).encode(), enc);
  EXPECT_TRUE(block.body_matches_header());
}

TEST(Golden, BigIntBigEndianEdgeCases) {
  using crypto::BigInt;
  EXPECT_EQ(to_hex(BigInt(0).to_bytes_be()), "");
  EXPECT_EQ(to_hex(BigInt(0).to_bytes_be(4)), "00000000");
  // Top limb 0x00000012: its three zero bytes are not written.
  EXPECT_EQ(to_hex(BigInt::from_hex("1234567890").to_bytes_be()),
            "1234567890");
  EXPECT_EQ(to_hex(BigInt::from_hex("100000000").to_bytes_be()),
            "0100000000");
  EXPECT_EQ(to_hex(BigInt::from_hex("abcd").to_bytes_be(5)), "000000abcd");
  // min_len below the value's length does not truncate.
  EXPECT_EQ(to_hex(BigInt::from_hex("abcdef").to_bytes_be(2)), "abcdef");
  EXPECT_EQ(to_hex(BigInt::from_hex("ff").to_bytes_be(1)), "ff");
  EXPECT_EQ(BigInt::from_hex("1234567890").byte_length(), 5u);
  EXPECT_EQ(BigInt(0).byte_length(), 0u);
}

TEST(Golden, BigIntWritesIntoTheCallersBuffer) {
  const crypto::BigInt v = crypto::BigInt::from_hex("abcdef");
  Bytes out(5, 0xee);
  v.write_be(out);
  EXPECT_EQ(to_hex(out), "0000abcdef");
  Bytes tight(3);
  v.write_be(tight);
  EXPECT_EQ(to_hex(tight), "abcdef");
  Bytes short_buf(2);
  EXPECT_THROW(v.write_be(short_buf), common::CryptoError);
}

TEST(Golden, DecodedTransactionOutlivesItsBuffer) {
  // Decode reads through views into the buffer; the transaction must own
  // every field it keeps. Under ASan a view kept past the buffer's end
  // is a heap-use-after-free here.
  const Fixture f = make_fixture();
  auto buffer = std::make_unique<Bytes>(f.tx.encode());
  Transaction decoded = Transaction::decode(*buffer);
  Block block = Block::decode(
      Block::make(1, crypto::Digest{}, {f.tx}, 7).encode());
  buffer.reset();
  EXPECT_EQ(to_hex(decoded.encode()), kTransactionHex);
  EXPECT_EQ(decoded.writes[0].value, (Bytes{1, 2, 3}));
  EXPECT_EQ(decoded.endorsements[1].endorser, "BankB");
  EXPECT_EQ(decoded.endorsements[1].key, f.b.public_key());
  EXPECT_TRUE(decoded.endorsements_valid(crypto::Group::test_group()));
  EXPECT_EQ(to_hex(block.transactions[0].encode()), kTransactionHex);
}

}  // namespace
}  // namespace veil::ledger
