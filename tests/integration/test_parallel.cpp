// Thread-count invariance: every parallel hot path must produce results
// bit-identical to the serial execution. Each scenario below is run with
// the global pool at 1 thread (pure inline — the pre-pool code path) and
// at 8 threads, and the complete observable outcome is compared:
// chain tip hashes, world state, receipts, Merkle roots, generated
// primes. Any scheduling-dependent behaviour shows up as a mismatch.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "contracts/contract.hpp"
#include "crypto/bigint.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "net/network.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"

namespace veil {
namespace {

using common::to_bytes;

// Leaves the suite in the deterministic single-thread configuration.
struct ThreadsGuard {
  ~ThreadsGuard() { common::ThreadPool::set_global_threads(1); }
};

std::shared_ptr<contracts::FunctionContract> kv_chaincode() {
  return std::make_shared<contracts::FunctionContract>(
      "kv", 1,
      [](contracts::ContractContext& ctx, const std::string& action) {
        if (action.rfind("put:", 0) == 0) {
          ctx.put(action.substr(4),
                  common::Bytes(ctx.args().begin(), ctx.args().end()));
          return contracts::InvokeStatus::Ok;
        }
        return contracts::InvokeStatus::UnknownAction;
      });
}

// A full Fabric scenario — four endorsing orgs so the fan-out, parallel
// signing and parallel block validation all see real work — reduced to a
// deterministic transcript string.
std::string fabric_transcript() {
  net::SimNetwork net{common::Rng(7)};
  common::Rng rng(8);
  fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng);
  const std::vector<std::string> orgs = {"OrgA", "OrgB", "OrgC", "OrgD"};
  for (const auto& org : orgs) fab.add_org(org);
  fab.create_channel("trade", {orgs.begin(), orgs.end()});
  std::vector<contracts::EndorsementPolicy> clauses;
  for (const auto& org : orgs) {
    clauses.push_back(contracts::EndorsementPolicy::require(org));
  }
  for (const auto& org : orgs) {
    fab.install_chaincode("trade", org, kv_chaincode(),
                          contracts::EndorsementPolicy::all_of(clauses));
  }

  std::ostringstream out;
  for (int i = 0; i < 6; ++i) {
    const auto receipt =
        fab.submit("trade", orgs[i % orgs.size()], "kv",
                   "put:key" + std::to_string(i),
                   to_bytes("value" + std::to_string(i)));
    out << receipt.tx_id << ':' << receipt.committed << ':' << receipt.reason
        << '\n';
  }
  for (const auto& org : orgs) {
    out << org << ':' << fab.chain("trade", org).height() << ':'
        << crypto::digest_hex(fab.chain("trade", org).tip_hash()) << '\n';
    for (int i = 0; i < 6; ++i) {
      const auto kv = fab.state("trade", org).get("key" + std::to_string(i));
      out << (kv ? common::to_hex(kv->value) : "-") << '\n';
    }
  }
  return out.str();
}

// A Quorum scenario exercising the parallel per-recipient envelope
// sealing (three recipients per private transaction).
std::string quorum_transcript() {
  net::SimNetwork net{common::Rng(27)};
  common::Rng rng(28);
  quorum::QuorumNetwork quorum(net, crypto::Group::test_group(), rng,
                               /*block_size=*/2);
  const std::vector<std::string> nodes = {"NodeA", "NodeB", "NodeC", "NodeD"};
  for (const auto& n : nodes) quorum.add_node(n);

  std::ostringstream out;
  for (int i = 0; i < 4; ++i) {
    const auto result = quorum.submit_private(
        nodes[i % nodes.size()], {"NodeB", "NodeC", "NodeD"},
        {{"deal" + std::to_string(i), to_bytes("amount" + std::to_string(i)),
          false}},
        to_bytes("payload" + std::to_string(i)));
    out << result.tx_id << ':' << result.accepted << '\n';
  }
  quorum.seal_block();
  for (const auto& n : nodes) {
    out << n << ':' << quorum.public_chain(n).height() << ':'
        << crypto::digest_hex(quorum.public_chain(n).tip_hash()) << '\n';
    for (int i = 0; i < 4; ++i) {
      const auto kv = quorum.private_state(n).get("deal" + std::to_string(i));
      out << (kv ? common::to_hex(kv->value) : "-") << '\n';
    }
  }
  return out.str();
}

TEST(ParallelDeterminism, FabricTranscriptIsThreadCountInvariant) {
  ThreadsGuard guard;
  common::ThreadPool::set_global_threads(1);
  const std::string serial = fabric_transcript();
  common::ThreadPool::set_global_threads(8);
  const std::string parallel = fabric_transcript();
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminism, QuorumTranscriptIsThreadCountInvariant) {
  ThreadsGuard guard;
  common::ThreadPool::set_global_threads(1);
  const std::string serial = quorum_transcript();
  common::ThreadPool::set_global_threads(8);
  const std::string parallel = quorum_transcript();
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminism, MerkleRootIsThreadCountInvariant) {
  ThreadsGuard guard;
  common::Rng rng(99);
  std::vector<common::Bytes> leaves;
  std::vector<common::Bytes> salts;
  for (int i = 0; i < 500; ++i) {
    leaves.push_back(rng.next_bytes(1 + rng.next_below(64)));
    salts.push_back(rng.next_bytes(16));
  }
  const std::vector<common::BytesView> leaf_views = common::views_of(leaves);
  const std::vector<common::BytesView> salt_views = common::views_of(salts);
  common::ThreadPool::set_global_threads(1);
  const auto serial = crypto::MerkleTree::build(leaf_views, salt_views);
  common::ThreadPool::set_global_threads(8);
  const auto parallel = crypto::MerkleTree::build(leaf_views, salt_views);
  EXPECT_EQ(serial.root(), parallel.root());
  // Proofs reference interior levels; spot-check they agree too.
  for (const std::size_t idx : {0u, 250u, 499u}) {
    EXPECT_EQ(serial.prove(idx).siblings, parallel.prove(idx).siblings);
  }
}

TEST(ParallelDeterminism, PrimeGenerationIsThreadCountInvariant) {
  ThreadsGuard guard;
  common::ThreadPool::set_global_threads(1);
  common::Rng rng_serial(4242);
  const crypto::BigInt p_serial = crypto::BigInt::generate_prime(rng_serial, 96);
  common::ThreadPool::set_global_threads(8);
  common::Rng rng_parallel(4242);
  const crypto::BigInt p_parallel =
      crypto::BigInt::generate_prime(rng_parallel, 96);
  EXPECT_EQ(p_serial, p_parallel);
  // The rng must be left in the same position (same number of draws).
  EXPECT_EQ(rng_serial.next_u64(), rng_parallel.next_u64());
}

TEST(ParallelDeterminism, MillerRabinVerdictsAgree) {
  ThreadsGuard guard;
  // A known prime (2^127-1) and a composite with no small factors.
  const crypto::BigInt prime =
      crypto::BigInt::from_decimal("170141183460469231731687303715884105727");
  const crypto::BigInt composite =
      prime * crypto::BigInt::from_decimal(
                  "340282366920938463463374607431768211507");
  for (const std::size_t threads : {1u, 8u}) {
    common::ThreadPool::set_global_threads(threads);
    common::Rng rng(5);
    EXPECT_TRUE(prime.is_probable_prime(rng));
    common::Rng rng2(5);
    EXPECT_FALSE(composite.is_probable_prime(rng2));
  }
}

}  // namespace
}  // namespace veil
