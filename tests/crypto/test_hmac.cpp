#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace veil::crypto {
namespace {

using common::Bytes;
using common::from_hex;
using common::to_bytes;

// RFC 4231 test vectors for HMAC-SHA256.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(digest_hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      digest_hex(hmac_sha256(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      digest_hex(hmac_sha256(
          key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key "
                        "First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  const Bytes msg = to_bytes("message");
  EXPECT_NE(hmac_sha256(to_bytes("key1"), msg),
            hmac_sha256(to_bytes("key2"), msg));
}

// RFC 5869 test vector A.1 (SHA-256).
TEST(Hkdf, Rfc5869CaseA1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Digest prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(digest_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");

  // info = 0xf0f1...f9, L = 42
  const std::string info = "\xf0\xf1\xf2\xf3\xf4\xf5\xf6\xf7\xf8\xf9";
  const Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(common::to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, EmptySaltUsesZeros) {
  const Bytes ikm = to_bytes("input");
  // Must not throw, and must be deterministic.
  const Bytes a = hkdf({}, ikm, "ctx", 32);
  const Bytes b = hkdf({}, ikm, "ctx", 32);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 32u);
}

TEST(Hmac, KeyedStateReusedAcrossMessages) {
  // One HmacSha256 answers every message as a fresh one-shot call does,
  // for a short key and for one hashed down first.
  for (const Bytes& key : {Bytes(20, 0x0b), Bytes(131, 0xaa)}) {
    const HmacSha256 keyed(key);
    for (const char* msg : {"", "Hi There", "what do ya want for nothing?"}) {
      EXPECT_EQ(keyed.mac(to_bytes(msg)), hmac_sha256(key, to_bytes(msg)))
          << msg;
    }
    const Bytes long_msg(200, 0xdd);
    EXPECT_EQ(keyed.mac(long_msg), hmac_sha256(key, long_msg));
  }
}

TEST(Hkdf, InfoSeparatesKeys) {
  const Bytes ikm = to_bytes("shared-secret");
  EXPECT_NE(hkdf({}, ikm, "enc", 32), hkdf({}, ikm, "mac", 32));
}

TEST(Hkdf, LongOutput) {
  const Bytes okm = hkdf({}, to_bytes("x"), "stretch", 100);
  EXPECT_EQ(okm.size(), 100u);
}

TEST(Hkdf, TooLongOutputThrows) {
  EXPECT_THROW(hkdf({}, to_bytes("x"), "y", 255 * 32 + 1),
               common::CryptoError);
}

}  // namespace
}  // namespace veil::crypto
