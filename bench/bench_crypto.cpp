// E7 — mechanism cost ablation (google-benchmark).
//
// Quantifies the §2 maturity/feasibility claims: symmetric encryption is
// cheap; Merkle tear-offs add hashing only; sigma-protocol ZKPs cost
// milliseconds; Paillier homomorphic encryption is orders of magnitude
// above AES; MPC adds quadratic communication. The paper asserts this
// ordering qualitatively — this bench measures it.
#include <benchmark/benchmark.h>

#include "crypto/aes.hpp"
#include "crypto/merkle.hpp"
#include "crypto/montgomery.hpp"
#include "crypto/paillier.hpp"
#include "crypto/shamir.hpp"
#include "crypto/zkp.hpp"
#include "mpc/protocol.hpp"
#include "tee/enclave.hpp"

namespace {

using namespace veil;
using common::Bytes;
using common::Rng;

// RFC 3526 group 14 (2048-bit MODP) prime — the reference hard modulus
// for the bignum hot-path benchmarks below.
const char* const kRfc3526Group14P =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

// Full-width modular exponentiation mod the RFC 3526 2048-bit prime: the
// dominant cost inside Paillier, ElGamal, ZKPs and credential issuance.
// Seed square-and-multiply measured ~103 ms/op on the reference machine;
// the Montgomery windowed path must stay >= 5x below that.
void BM_ModPow_2048(benchmark::State& state) {
  Rng rng(42);
  const crypto::BigInt p = crypto::BigInt::from_hex(kRfc3526Group14P);
  const crypto::BigInt base = crypto::BigInt::random_below(rng, p);
  const crypto::BigInt exp = crypto::BigInt::random_bits(rng, 2048);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.mod_pow(exp, p));
  }
}
BENCHMARK(BM_ModPow_2048)->Unit(benchmark::kMillisecond);

// One 2048-bit Montgomery product through the BigInt API (the kernel's
// inner-loop unit plus the limb conversions at the API).
void BM_MontgomeryMul(benchmark::State& state) {
  Rng rng(43);
  const crypto::BigInt p = crypto::BigInt::from_hex(kRfc3526Group14P);
  const auto ctx = crypto::MontgomeryCtx::create(p);
  const crypto::BigInt a = ctx->to_mont(crypto::BigInt::random_below(rng, p));
  const crypto::BigInt b = ctx->to_mont(crypto::BigInt::random_below(rng, p));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->mul(a, b));
  }
}
BENCHMARK(BM_MontgomeryMul);

// Plain 2048x2048-bit BigInt multiply (schoolbook; the hot modular
// products run in the Montgomery kernel instead).
void BM_BigIntMul_2048(benchmark::State& state) {
  Rng rng(44);
  const crypto::BigInt a = crypto::BigInt::random_bits(rng, 2048);
  const crypto::BigInt b = crypto::BigInt::random_bits(rng, 2048);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul_2048);

// Fixed-base generator exponentiation through the precomputed table, as
// used by Pedersen commitments, Schnorr signing and ElGamal keygen.
void BM_FixedBasePowG(benchmark::State& state) {
  Rng rng(45);
  const crypto::Group& group = crypto::Group::default_group();
  const crypto::BigInt e = group.random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.pow_g(e));
  }
}
BENCHMARK(BM_FixedBasePowG);

void BM_Sha256_1KiB(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.next_bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_AesSeal_1KiB(benchmark::State& state) {
  Rng rng(2);
  const Bytes key = rng.next_bytes(32);
  const Bytes data = rng.next_bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::seal(key, data, rng.next_bytes(16)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_AesSeal_1KiB);

void BM_AesOpen_1KiB(benchmark::State& state) {
  Rng rng(3);
  const Bytes key = rng.next_bytes(32);
  const Bytes sealed = crypto::seal(key, rng.next_bytes(1024), rng.next_bytes(16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::open(key, sealed));
  }
}
BENCHMARK(BM_AesOpen_1KiB);

// --- Symmetric kernel throughput (64 KiB buffers, MB/s) --------------------
// One benchmark per available kernel, registered conditionally so the
// JSON snapshot only reports kernels this machine can actually run.

void aes_ctr_kernel_bench(benchmark::State& state, crypto::AesKernel kernel) {
  crypto::set_aes_kernel(kernel);
  Rng rng(8);
  const Bytes key = rng.next_bytes(32);
  const Bytes nonce = rng.next_bytes(16);
  const Bytes data = rng.next_bytes(64 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aes_ctr(key, nonce, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
  state.SetLabel(crypto::aes_kernel_name());
  crypto::set_aes_kernel(crypto::AesKernel::Auto);
}

void sha256_kernel_bench(benchmark::State& state, crypto::Sha256Kernel kernel) {
  crypto::set_sha256_kernel(kernel);
  Rng rng(9);
  const Bytes data = rng.next_bytes(64 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
  state.SetLabel(crypto::sha256_kernel_name());
  crypto::set_sha256_kernel(crypto::Sha256Kernel::Auto);
}

void register_symmetric_kernel_benches() {
  benchmark::RegisterBenchmark("BM_AesCtr_64KiB/reference",
                               aes_ctr_kernel_bench,
                               crypto::AesKernel::Reference);
  benchmark::RegisterBenchmark("BM_AesCtr_64KiB/ttable", aes_ctr_kernel_bench,
                               crypto::AesKernel::TTable);
  crypto::set_aes_kernel(crypto::AesKernel::AesNi);
  if (crypto::active_aes_kernel() == crypto::AesKernel::AesNi) {
    benchmark::RegisterBenchmark("BM_AesCtr_64KiB/aesni", aes_ctr_kernel_bench,
                                 crypto::AesKernel::AesNi);
  }
  crypto::set_aes_kernel(crypto::AesKernel::Auto);

  benchmark::RegisterBenchmark("BM_Sha256_64KiB/scalar", sha256_kernel_bench,
                               crypto::Sha256Kernel::Scalar);
  crypto::set_sha256_kernel(crypto::Sha256Kernel::ShaNi);
  if (crypto::active_sha256_kernel() == crypto::Sha256Kernel::ShaNi) {
    benchmark::RegisterBenchmark("BM_Sha256_64KiB/sha_ni", sha256_kernel_bench,
                                 crypto::Sha256Kernel::ShaNi);
  }
  crypto::set_sha256_kernel(crypto::Sha256Kernel::Auto);
}

const bool kSymmetricBenchesRegistered = [] {
  register_symmetric_kernel_benches();
  return true;
}();

void BM_SchnorrSign(benchmark::State& state) {
  Rng rng(4);
  const crypto::Group& group = crypto::Group::default_group();
  const crypto::KeyPair kp = crypto::KeyPair::generate(group, rng);
  const Bytes msg = rng.next_bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.sign(msg));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  Rng rng(5);
  const crypto::Group& group = crypto::Group::default_group();
  const crypto::KeyPair kp = crypto::KeyPair::generate(group, rng);
  const Bytes msg = rng.next_bytes(256);
  const auto sig = kp.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(group, kp.public_key(), msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_MerkleBuild(benchmark::State& state) {
  Rng rng(6);
  std::vector<Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) leaves.push_back(rng.next_bytes(128));
  const std::vector<common::BytesView> views = common::views_of(leaves);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::MerkleTree::build(views));
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(8)->Arg(64)->Arg(512);

void BM_TearOffCreateVerify(benchmark::State& state) {
  Rng rng(7);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> leaves, salts;
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(rng.next_bytes(128));
    salts.push_back(rng.next_bytes(16));
  }
  const auto tree = crypto::MerkleTree::build(common::views_of(leaves),
                                              common::views_of(salts));
  for (auto _ : state) {
    const auto torn = crypto::TearOff::create(leaves, salts, {0});
    benchmark::DoNotOptimize(torn.verify_against(tree.root()));
  }
}
BENCHMARK(BM_TearOffCreateVerify)->Arg(8)->Arg(64)->Arg(512);

void BM_ZkpRangeProve(benchmark::State& state) {
  Rng rng(8);
  const crypto::Group& group = crypto::Group::test_group();
  const crypto::Pedersen pedersen(group);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  auto [commitment, opening] = pedersen.commit(crypto::BigInt(100), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::prove_range(
        group, commitment, opening, bits, common::to_bytes("b"), rng));
  }
}
BENCHMARK(BM_ZkpRangeProve)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_ZkpRangeVerify(benchmark::State& state) {
  Rng rng(9);
  const crypto::Group& group = crypto::Group::test_group();
  const crypto::Pedersen pedersen(group);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  auto [commitment, opening] = pedersen.commit(crypto::BigInt(100), rng);
  const auto proof = crypto::prove_range(group, commitment, opening, bits,
                                         common::to_bytes("b"), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify_range(group, commitment, proof,
                                                  bits, common::to_bytes("b")));
  }
}
BENCHMARK(BM_ZkpRangeVerify)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_PaillierEncrypt(benchmark::State& state) {
  Rng rng(10);
  const auto keys = crypto::PaillierKeyPair::generate(
      rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::paillier_encrypt(keys.public_key(), crypto::BigInt(123456), rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_PaillierAdd(benchmark::State& state) {
  Rng rng(11);
  const auto keys = crypto::PaillierKeyPair::generate(rng, 256);
  const auto a = crypto::paillier_encrypt(keys.public_key(), crypto::BigInt(1), rng);
  const auto b = crypto::paillier_encrypt(keys.public_key(), crypto::BigInt(2), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::paillier_add(keys.public_key(), a, b));
  }
}
BENCHMARK(BM_PaillierAdd);

void BM_PaillierDecrypt(benchmark::State& state) {
  Rng rng(12);
  const auto keys = crypto::PaillierKeyPair::generate(rng, 256);
  const auto ct = crypto::paillier_encrypt(keys.public_key(), crypto::BigInt(9), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys.decrypt(ct));
  }
}
BENCHMARK(BM_PaillierDecrypt)->Unit(benchmark::kMillisecond);

void BM_MpcSecureSum(benchmark::State& state) {
  const crypto::Shamir field(
      crypto::BigInt::from_decimal("2305843009213693951"));
  const int parties = static_cast<int>(state.range(0));
  for (auto _ : state) {
    net::SimNetwork net{Rng(13)};
    Rng rng(14);
    mpc::SecureSum protocol(field, net);
    std::map<std::string, crypto::BigInt> inputs;
    for (int i = 0; i < parties; ++i) {
      inputs["P" + std::to_string(i)] =
          crypto::BigInt(static_cast<std::uint64_t>(i));
    }
    benchmark::DoNotOptimize(protocol.run(inputs, rng));
  }
  state.counters["messages"] = 2.0 * parties * (parties - 1);
}
BENCHMARK(BM_MpcSecureSum)->Arg(3)->Arg(5)->Arg(9)->Unit(benchmark::kMillisecond);

void BM_TeeSealedInvoke(benchmark::State& state) {
  Rng rng(15);
  net::LeakageAuditor auditor;
  tee::Manufacturer manufacturer(crypto::Group::test_group(), rng);
  tee::Enclave enclave("host", manufacturer, "d", auditor, rng, 0);
  enclave.load(std::make_shared<contracts::FunctionContract>(
      "cc", 1, [](contracts::ContractContext& ctx, const std::string&) {
        ctx.put("k", common::to_bytes("v"));
        return contracts::InvokeStatus::Ok;
      }));
  tee::EnclaveClient client(crypto::Group::test_group(), rng);
  client.accept(enclave.open_session(client.public_key(), rng));
  const tee::InvokeRequest request{"cc", "go", common::to_bytes("x")};
  for (auto _ : state) {
    const auto sealed = client.seal(request, rng);
    benchmark::DoNotOptimize(enclave.invoke(sealed));
  }
}
BENCHMARK(BM_TeeSealedInvoke);

void BM_TeeAttest(benchmark::State& state) {
  Rng rng(16);
  net::LeakageAuditor auditor;
  tee::Manufacturer manufacturer(crypto::Group::test_group(), rng);
  tee::Enclave enclave("host", manufacturer, "d", auditor, rng, 0);
  const Bytes nonce = rng.next_bytes(16);
  for (auto _ : state) {
    const auto quote = enclave.attest(nonce);
    benchmark::DoNotOptimize(tee::verify_quote(
        crypto::Group::test_group(), manufacturer.root_key(), quote,
        enclave.measurement(), nonce, 0));
  }
}
BENCHMARK(BM_TeeAttest);

}  // namespace

BENCHMARK_MAIN();
