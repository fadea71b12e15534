// Decode robustness: every wire format must reject malformed input with
// a veil error (or parse it into a consistent object) — never crash,
// never read out of bounds. Random buffers and bit-flipped valid
// encodings are both exercised.
#include <gtest/gtest.h>

#include "audit/evidence.hpp"
#include "common/error.hpp"
#include "crypto/elgamal.hpp"
#include "crypto/merkle.hpp"
#include "crypto/zkp.hpp"
#include "ledger/admission.hpp"
#include "ledger/block.hpp"
#include "ledger/mempool.hpp"
#include "ledger/state.hpp"
#include "ledger/triesync.hpp"
#include "net/fault.hpp"
#include "net/overload.hpp"
#include "net/reliable.hpp"
#include "pki/certificate.hpp"
#include "platforms/quorum/quorum.hpp"
#include "tee/attestation.hpp"

namespace veil {
namespace {

using common::Bytes;

// Try to decode arbitrary bytes with `decode`; acceptable outcomes are a
// veil::common::Error or a successfully parsed object.
template <typename Decoder>
void expect_no_crash(const Bytes& data, Decoder decode) {
  try {
    decode(data);
  } catch (const common::Error&) {
    // rejected cleanly
  }
}

class DecodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeFuzz, RandomBuffers) {
  common::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Bytes junk = rng.next_bytes(rng.next_below(256));
    expect_no_crash(junk, [](const Bytes& d) {
      return ledger::Transaction::decode(d);
    });
    expect_no_crash(junk, [](const Bytes& d) { return ledger::Block::decode(d); });
    expect_no_crash(junk,
                    [](const Bytes& d) { return pki::Certificate::decode(d); });
    expect_no_crash(junk,
                    [](const Bytes& d) { return crypto::TearOff::decode(d); });
    expect_no_crash(junk, [](const Bytes& d) {
      return crypto::ElGamalCiphertext::decode(d);
    });
    expect_no_crash(junk,
                    [](const Bytes& d) { return crypto::Signature::decode(d); });
    expect_no_crash(junk, [](const Bytes& d) {
      return crypto::RangeProof::decode(d, 8);
    });
    expect_no_crash(junk, [](const Bytes& d) {
      return quorum::PrivateEnvelope::decode(d);
    });
    expect_no_crash(junk, [](const Bytes& d) {
      return tee::AttestationQuote::decode(d);
    });
    expect_no_crash(junk, [](const Bytes& d) {
      return net::ReliableChannel::Envelope::decode(d);
    });
    expect_no_crash(junk,
                    [](const Bytes& d) { return ledger::WorldState::decode(d); });
    expect_no_crash(junk,
                    [](const Bytes& d) { return audit::Evidence::decode(d); });
    expect_no_crash(junk, [](const Bytes& d) {
      return net::ByzantineEvent::decode(d);
    });
    expect_no_crash(junk, [](const Bytes& d) { return net::Busy::decode(d); });
    expect_no_crash(junk,
                    [](const Bytes& d) { return ledger::ShedRecord::decode(d); });
  }
}

TEST_P(DecodeFuzz, BitFlippedValidEncodings) {
  common::Rng rng(GetParam() ^ 0xabcdef);

  ledger::Transaction tx;
  tx.channel = "ch";
  tx.contract = "cc";
  tx.action = "act";
  tx.participants = {"A", "B"};
  tx.writes = {{"k", common::to_bytes("v"), false}};
  tx.payload = rng.next_bytes(64);
  const Bytes tx_enc = tx.encode();

  const ledger::Block block = ledger::Block::make(
      0, crypto::sha256(std::string_view("veil.chain.genesis")), {tx}, 1);
  const Bytes block_enc = block.encode();

  for (int i = 0; i < 100; ++i) {
    Bytes flipped = tx_enc;
    flipped[rng.next_below(flipped.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    expect_no_crash(flipped, [](const Bytes& d) {
      return ledger::Transaction::decode(d);
    });

    Bytes flipped_block = block_enc;
    flipped_block[rng.next_below(flipped_block.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    expect_no_crash(flipped_block,
                    [](const Bytes& d) { return ledger::Block::decode(d); });
  }
}

TEST_P(DecodeFuzz, BitFlippedFaultToleranceEncodings) {
  // Valid encodings of the wire formats the robustness PR added or
  // hardened: Merkle tear-off proofs, Quorum private-payload envelopes,
  // TEE attestation quotes, and reliable-channel envelopes.
  common::Rng rng(GetParam() ^ 0xfa017);

  const std::vector<Bytes> leaves = {common::to_bytes("input-ref"),
                                     common::to_bytes("amount:100"),
                                     common::to_bytes("party:A"),
                                     common::to_bytes("party:B")};
  const std::vector<Bytes> salts = {rng.next_bytes(16), rng.next_bytes(16),
                                    rng.next_bytes(16), rng.next_bytes(16)};
  const Bytes tearoff_enc = crypto::TearOff::create(leaves, salts, {0, 2}).encode();

  quorum::PrivateEnvelope env;
  env.tx_id = "tx-fuzz";
  env.sender = "NodeA";
  env.sealed = rng.next_bytes(96);
  const Bytes env_enc = env.encode();

  tee::Manufacturer manufacturer(crypto::Group::test_group(), rng);
  tee::Manufacturer::Provision prov = manufacturer.provision("dev-fuzz", 0);
  tee::AttestationQuote quote;
  quote.measurement = crypto::sha256(std::string_view("enclave-code"));
  quote.nonce = rng.next_bytes(16);
  quote.device_cert = prov.device_cert;
  quote.quote_signature = prov.device_key.sign(quote.to_be_signed());
  const Bytes quote_enc = quote.encode();

  for (int i = 0; i < 100; ++i) {
    Bytes flipped_tearoff = tearoff_enc;
    flipped_tearoff[rng.next_below(flipped_tearoff.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    expect_no_crash(flipped_tearoff,
                    [](const Bytes& d) { return crypto::TearOff::decode(d); });

    Bytes flipped_env = env_enc;
    flipped_env[rng.next_below(flipped_env.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    expect_no_crash(flipped_env, [](const Bytes& d) {
      return quorum::PrivateEnvelope::decode(d);
    });

    Bytes flipped_quote = quote_enc;
    flipped_quote[rng.next_below(flipped_quote.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    expect_no_crash(flipped_quote, [](const Bytes& d) {
      return tee::AttestationQuote::decode(d);
    });
  }
}

TEST_P(DecodeFuzz, TruncatedFaultToleranceEncodings) {
  common::Rng rng(GetParam() + 99);
  quorum::PrivateEnvelope env;
  env.tx_id = "tx-trunc";
  env.sender = "NodeB";
  env.sealed = rng.next_bytes(64);
  const Bytes env_enc = env.encode();
  for (std::size_t len = 0; len < env_enc.size(); len += 3) {
    const Bytes truncated(env_enc.begin(),
                          env_enc.begin() + static_cast<std::ptrdiff_t>(len));
    expect_no_crash(truncated, [](const Bytes& d) {
      return quorum::PrivateEnvelope::decode(d);
    });
  }

  const std::vector<Bytes> leaves = {common::to_bytes("a"),
                                     common::to_bytes("b")};
  const Bytes tearoff_enc =
      crypto::TearOff::create(leaves, {Bytes{}, Bytes{}}, {1}).encode();
  for (std::size_t len = 0; len < tearoff_enc.size(); len += 3) {
    const Bytes truncated(
        tearoff_enc.begin(),
        tearoff_enc.begin() + static_cast<std::ptrdiff_t>(len));
    expect_no_crash(truncated,
                    [](const Bytes& d) { return crypto::TearOff::decode(d); });
  }
}

TEST_P(DecodeFuzz, BitFlippedByzantineTierEncodings) {
  // Wire formats the Byzantine tier added: signed evidence records and
  // adversary-plan events. Both cross trust boundaries (evidence is
  // handed to third parties; plans are config), so decode must never
  // crash on hostile bytes.
  common::Rng rng(GetParam() ^ 0xb12a);

  crypto::Group group = crypto::Group::test_group();
  crypto::KeyPair reporter = crypto::KeyPair::generate(group, rng);
  audit::Evidence evidence;
  evidence.kind = audit::Misbehavior::NotaryEquivocation;
  evidence.accused = "Notary";
  evidence.reporter = "Bob";
  evidence.detail = "conflicting consumes";
  evidence.detected_at = 123'456;
  evidence.proof_a = rng.next_bytes(48);
  evidence.proof_b = rng.next_bytes(48);
  evidence.sign(reporter);
  const Bytes evidence_enc = evidence.encode();

  net::ByzantinePlan plan;
  plan.tamper_from(1'000, "mallory", 0.5).replay_from(2'000, "eve", 10'000);
  const Bytes event_enc = plan.ordered_events().front().encode();

  for (int i = 0; i < 100; ++i) {
    Bytes flipped = evidence_enc;
    flipped[rng.next_below(flipped.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    expect_no_crash(flipped,
                    [](const Bytes& d) { return audit::Evidence::decode(d); });

    Bytes flipped_event = event_enc;
    flipped_event[rng.next_below(flipped_event.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    expect_no_crash(flipped_event, [](const Bytes& d) {
      return net::ByzantineEvent::decode(d);
    });
  }

  // Truncations of both formats.
  for (std::size_t len = 0; len < evidence_enc.size(); len += 5) {
    const Bytes truncated(
        evidence_enc.begin(),
        evidence_enc.begin() + static_cast<std::ptrdiff_t>(len));
    expect_no_crash(truncated,
                    [](const Bytes& d) { return audit::Evidence::decode(d); });
  }
  for (std::size_t len = 0; len < event_enc.size(); ++len) {
    const Bytes truncated(
        event_enc.begin(), event_enc.begin() + static_cast<std::ptrdiff_t>(len));
    expect_no_crash(truncated, [](const Bytes& d) {
      return net::ByzantineEvent::decode(d);
    });
  }

  // An untampered round trip must preserve the signature's validity.
  const audit::Evidence back = audit::Evidence::decode(evidence_enc);
  EXPECT_TRUE(back.verify(group, reporter.public_key()));
  EXPECT_EQ(back.dedupe_key(), evidence.dedupe_key());
}

TEST_P(DecodeFuzz, BitFlippedRecoveryTierEncodings) {
  // Wire formats of the recovery tier: the TrieSync rejoin messages. A
  // joiner decodes all of them from peers it does not yet trust, so
  // every one must reject hostile bytes cleanly.
  common::Rng rng(GetParam() ^ 0x5eed);

  ledger::WorldState state;
  for (int i = 0; i < 12; ++i) {
    state.put("k/" + std::to_string(i), rng.next_bytes(24));
  }
  const crypto::Digest root = state.digest();
  const crypto::Digest tip = crypto::sha256(rng.next_bytes(16));
  ledger::NodeStore nodes;
  state.trie().collect_nodes(nodes);
  ledger::NodeBatch batch{
      .scope = "ch", .state_root = root, .ok = true, .nodes = {}};
  for (const auto& [hash, bytes] : nodes) {
    (void)hash;
    batch.nodes.push_back(bytes);
  }

  const std::vector<Bytes> encodings = {
      ledger::SnapshotRequest{.scope = "ch", .min_height = 9}.encode(),
      ledger::RootVote{.scope = "ch", .height = 7, .known = true,
                       .root = root}
          .encode(),
      ledger::TrieSyncOffer{.scope = "ch", .available = true, .height = 7,
                            .tip_hash = tip, .state_root = root}
          .encode(),
      ledger::NodeRequest{.scope = "ch", .state_root = root,
                          .wanted = {root, tip}}
          .encode(),
      batch.encode(),
  };
  const auto decoders = [](const Bytes& d, std::size_t which) {
    switch (which) {
      case 0: ledger::SnapshotRequest::decode(d); break;
      case 1: ledger::RootVote::decode(d); break;
      case 2: ledger::TrieSyncOffer::decode(d); break;
      case 3: ledger::NodeRequest::decode(d); break;
      default: ledger::NodeBatch::decode(d); break;
    }
  };

  for (std::size_t which = 0; which < encodings.size(); ++which) {
    const Bytes& enc = encodings[which];
    for (int i = 0; i < 60; ++i) {
      Bytes flipped = enc;
      flipped[rng.next_below(flipped.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      expect_no_crash(flipped,
                      [&](const Bytes& d) { decoders(d, which); return 0; });
    }
    for (std::size_t len = 0; len < enc.size(); len += 3) {
      const Bytes truncated(enc.begin(),
                            enc.begin() + static_cast<std::ptrdiff_t>(len));
      expect_no_crash(truncated,
                      [&](const Bytes& d) { decoders(d, which); return 0; });
    }
    // Random junk too — count fields must not drive allocations.
    expect_no_crash(rng.next_bytes(rng.next_below(200)),
                    [&](const Bytes& d) { decoders(d, which); return 0; });
  }

  // Untampered round trips stay exact.
  const ledger::RootVote vote = ledger::RootVote::decode(encodings[1]);
  EXPECT_TRUE(vote.known);
  EXPECT_EQ(vote.root, root);
  const ledger::TrieSyncOffer offer =
      ledger::TrieSyncOffer::decode(encodings[2]);
  EXPECT_EQ(offer.tip_hash, tip);
  EXPECT_EQ(offer.state_root, root);
  EXPECT_EQ(ledger::NodeBatch::decode(encodings[4]).nodes, batch.nodes);
}

TEST_P(DecodeFuzz, BitFlippedCommitPathEncodings) {
  // Commit-path records: validation tokens and eviction records. Tokens
  // are consulted on the sealing hot path, so a corrupted token must
  // reject cleanly rather than vouch for an unverified transaction.
  common::Rng rng(GetParam() ^ 0xba7c);

  ledger::Transaction tx;
  tx.channel = "ch";
  tx.contract = "cc";
  tx.action = "xfer";
  tx.reads = {{"acct/a", 3}, {"acct/b", 0}};
  tx.payload = rng.next_bytes(48);

  ledger::ValidationToken token;
  token.tx_id = tx.id();
  token.body_digest = tx.body_digest();
  token.read_snapshot = tx.reads;
  token.admitted_at = 17;
  token.verified = true;

  const ledger::EvictionRecord record{
      tx.id(), ledger::EvictionRecord::Cause::Invalidated, 23};

  const std::vector<Bytes> encodings = {token.encode(), record.encode()};
  const auto decoders = [](const Bytes& d, std::size_t which) {
    if (which == 0) {
      ledger::ValidationToken::decode(d);
    } else {
      ledger::EvictionRecord::decode(d);
    }
  };

  for (std::size_t which = 0; which < encodings.size(); ++which) {
    const Bytes& enc = encodings[which];
    for (int i = 0; i < 60; ++i) {
      Bytes flipped = enc;
      flipped[rng.next_below(flipped.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      expect_no_crash(flipped,
                      [&](const Bytes& d) { decoders(d, which); return 0; });
    }
    for (std::size_t len = 0; len < enc.size(); len += 3) {
      const Bytes truncated(enc.begin(),
                            enc.begin() + static_cast<std::ptrdiff_t>(len));
      expect_no_crash(truncated,
                      [&](const Bytes& d) { decoders(d, which); return 0; });
    }
    expect_no_crash(rng.next_bytes(rng.next_below(200)),
                    [&](const Bytes& d) { decoders(d, which); return 0; });
  }

  // Untampered round trips are lossless.
  EXPECT_EQ(ledger::ValidationToken::decode(token.encode()), token);
  EXPECT_EQ(ledger::EvictionRecord::decode(record.encode()), record);
}

TEST_P(DecodeFuzz, BitFlippedOverloadTierEncodings) {
  // Overload-tier wire formats: Busy backpressure notices, TTL'd
  // reliable-channel envelopes, admission shed records, and eviction
  // records carrying the new PinnedSkip cause. Busy notices arrive from
  // saturated (possibly hostile) peers, so a malformed one must reject
  // cleanly rather than steer the sender's retry schedule off a cliff.
  common::Rng rng(GetParam() ^ 0x10ad);
  net::Busy busy;
  busy.topic = "fabric.order";
  busy.retry_after_us = 12'500;
  busy.queue_depth = 9;

  net::ReliableChannel::Envelope envelope;
  envelope.seq = 42;
  envelope.deadline_us = 77'000;
  envelope.payload = rng.next_bytes(48);

  ledger::ShedRecord shed;
  shed.tx_id = "tx-shed";
  shed.priority = ledger::AdmitPriority::Commit;
  shed.cause = ledger::ShedRecord::Cause::QueueDelay;
  shed.queue_delay_us = 8'800;
  shed.at = 64'000;

  const ledger::EvictionRecord pinned{
      "tx-pin", ledger::EvictionRecord::Cause::PinnedSkip, 31};

  const std::vector<Bytes> encodings = {busy.encode(), envelope.encode(),
                                        shed.encode(), pinned.encode()};
  const auto decoders = [](const Bytes& d, std::size_t which) {
    switch (which) {
      case 0: net::Busy::decode(d); break;
      case 1: net::ReliableChannel::Envelope::decode(d); break;
      case 2: ledger::ShedRecord::decode(d); break;
      default: ledger::EvictionRecord::decode(d); break;
    }
  };

  for (std::size_t which = 0; which < encodings.size(); ++which) {
    const Bytes& enc = encodings[which];
    for (int i = 0; i < 60; ++i) {
      Bytes flipped = enc;
      flipped[rng.next_below(flipped.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      expect_no_crash(flipped,
                      [&](const Bytes& d) { decoders(d, which); return 0; });
    }
    for (std::size_t len = 0; len < enc.size(); len += 3) {
      const Bytes truncated(enc.begin(),
                            enc.begin() + static_cast<std::ptrdiff_t>(len));
      expect_no_crash(truncated,
                      [&](const Bytes& d) { decoders(d, which); return 0; });
    }
    expect_no_crash(rng.next_bytes(rng.next_below(200)),
                    [&](const Bytes& d) { decoders(d, which); return 0; });
  }

  // Untampered round trips are lossless.
  EXPECT_EQ(net::Busy::decode(busy.encode()), busy);
  EXPECT_EQ(ledger::ShedRecord::decode(shed.encode()), shed);
  EXPECT_EQ(ledger::EvictionRecord::decode(pinned.encode()), pinned);
  const auto env_back =
      net::ReliableChannel::Envelope::decode(envelope.encode());
  EXPECT_EQ(env_back.seq, envelope.seq);
  EXPECT_EQ(env_back.deadline_us, envelope.deadline_us);
  EXPECT_EQ(env_back.payload, envelope.payload);
}

TEST_P(DecodeFuzz, BlockDecodeIsCanonicalAndChecksTheBody) {
  // Block::decode hashes the received transaction bytes into the Merkle
  // root, so any bit flipped after the header either breaks the framing
  // or changes a leaf: both must be refused at decode. Trailing bytes are
  // refused too, so a block that decodes re-encodes to the same bytes.
  common::Rng rng(GetParam() * 7919 + 3);
  std::vector<ledger::Transaction> txs;
  const std::size_t n = 1 + rng.next_below(80);  // crosses the pool cut-off
  for (std::size_t i = 0; i < n; ++i) {
    ledger::Transaction tx;
    tx.channel = "ch";
    tx.action = "a" + std::to_string(i);
    tx.payload = rng.next_bytes(1 + rng.next_below(48));
    txs.push_back(std::move(tx));
  }
  const ledger::Block block = ledger::Block::make(
      3, crypto::sha256(std::string_view("veil.chain.genesis")),
      std::move(txs), 9);
  const Bytes enc = block.encode();
  ASSERT_EQ(ledger::Block::decode(enc).encode(), enc);
  const std::size_t body_start = 1 + block.header.encode().size();

  Bytes trailing = enc;
  const Bytes extra = rng.next_bytes(1 + rng.next_below(4));
  trailing.insert(trailing.end(), extra.begin(), extra.end());
  EXPECT_THROW(ledger::Block::decode(trailing), common::Error);

  for (int i = 0; i < 50; ++i) {
    Bytes flipped = enc;
    const std::size_t at =
        body_start + rng.next_below(flipped.size() - body_start);
    flipped[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_THROW(ledger::Block::decode(flipped), common::Error)
        << "flip at byte " << at;
  }
}

TEST_P(DecodeFuzz, TruncatedValidEncodings) {
  common::Rng rng(GetParam() + 17);
  ledger::Transaction tx;
  tx.channel = "channel-name";
  tx.payload = rng.next_bytes(128);
  const Bytes enc = tx.encode();
  for (std::size_t len = 0; len < enc.size(); len += 7) {
    const Bytes truncated(enc.begin(),
                          enc.begin() + static_cast<std::ptrdiff_t>(len));
    expect_no_crash(truncated, [](const Bytes& d) {
      return ledger::Transaction::decode(d);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Robustness, TamperedBlockDetectedAfterDecode) {
  // A block that decodes fine but was tampered with must fail the
  // header-root check — decode success is not acceptance.
  ledger::Transaction tx;
  tx.channel = "ch";
  tx.action = "a";
  ledger::Block block = ledger::Block::make(
      0, crypto::sha256(std::string_view("veil.chain.genesis")), {tx}, 1);
  Bytes enc = block.encode();
  // Flip a byte inside the transaction body region (near the end).
  enc[enc.size() - 3] ^= 0x40;
  try {
    const ledger::Block decoded = ledger::Block::decode(enc);
    EXPECT_FALSE(decoded.body_matches_header());
  } catch (const common::Error&) {
    SUCCEED();  // rejected at decode, equally fine
  }
}

}  // namespace
}  // namespace veil
