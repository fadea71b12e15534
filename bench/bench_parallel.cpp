// Symmetric-kernel throughput + thread-scaling sweeps for the parallel
// execution engine (google-benchmark → BENCH_symmetric.json via
// bench/run_benches.sh).
//
// Two families:
//   * Per-kernel AES-CTR / SHA-256 throughput on 64 KiB buffers —
//     hardware (AES-NI / SHA-NI) vs software (T-table / scalar) vs the
//     byte-wise reference baseline. Hardware rows register only on
//     machines whose CPUID reports the extensions.
//   * Thread sweeps (1/2/4/8) over the pooled hot paths: block
//     endorsement validation, Merkle build, per-recipient envelope
//     sealing, Miller-Rabin rounds, and the raw pool dispatch overhead.
//     Interpret sweeps relative to the machine: on a single-core host
//     every thread count measures the same serial work plus pool
//     overhead (the JSON context block records the CPU count).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/aes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "ledger/transaction.hpp"

namespace {

using namespace veil;
using common::Bytes;
using common::Rng;
using common::ThreadPool;

// --- Per-kernel symmetric throughput ---------------------------------------

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

void register_kernel_benches() {
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

const bool kKernelBenchesRegistered = [] {
  register_kernel_benches();
  return true;
}();

// --- Thread sweeps ---------------------------------------------------------

// Per-transaction endorsement-signature verification, the dominant cost
// of FabricNetwork::commit_block. 32 transactions x 4 endorsements.
void BM_BlockValidation(benchmark::State& state) {
  Rng rng(11);
  const crypto::Group& group = crypto::Group::default_group();
  std::vector<crypto::KeyPair> keys;
  for (int i = 0; i < 4; ++i) keys.push_back(crypto::KeyPair::generate(group, rng));
  std::vector<ledger::Transaction> txs(32);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    ledger::Transaction& tx = txs[i];
    tx.channel = "bench";
    tx.contract = "kv";
    tx.action = "put";
    tx.payload = rng.next_bytes(256);
    tx.writes.push_back({"key" + std::to_string(i), rng.next_bytes(64), false});
    for (std::size_t k = 0; k < keys.size(); ++k) {
      tx.endorse("Org" + std::to_string(k), keys[k]);
    }
  }
  ThreadPool::set_global_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto valid = ThreadPool::global().parallel_map(
        txs.size(),
        [&](std::size_t i) -> char { return txs[i].endorsements_valid(group); });
    benchmark::DoNotOptimize(valid);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(txs.size()));
  ThreadPool::set_global_threads(1);
}
BENCHMARK(BM_BlockValidation)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MerkleBuildThreads(benchmark::State& state) {
  Rng rng(12);
  std::vector<Bytes> leaves;
  for (int i = 0; i < 4096; ++i) leaves.push_back(rng.next_bytes(256));
  ThreadPool::set_global_threads(static_cast<std::size_t>(state.range(0)));
  const std::vector<common::BytesView> views = common::views_of(leaves);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::MerkleTree::build(views));
  }
  ThreadPool::set_global_threads(1);
}
BENCHMARK(BM_MerkleBuildThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The Quorum transaction-manager inner loop: one HKDF pair key + one
// seal per recipient, 16 recipients, 4 KiB payload.
void BM_EnvelopeSealThreads(benchmark::State& state) {
  Rng rng(13);
  const Bytes payload = rng.next_bytes(4096);
  std::vector<std::string> recipients;
  std::vector<Bytes> nonces;
  for (int i = 0; i < 16; ++i) {
    recipients.push_back("Node" + std::to_string(i));
    nonces.push_back(rng.next_bytes(16));
  }
  ThreadPool::set_global_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto sealed = ThreadPool::global().parallel_map(
        recipients.size(), [&](std::size_t i) {
          const Bytes pair_key = crypto::hkdf(
              {}, common::to_bytes("from|" + recipients[i]), "quorum.tm.pair",
              32);
          return crypto::seal(pair_key, payload, nonces[i]);
        });
    benchmark::DoNotOptimize(sealed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(recipients.size()));
  ThreadPool::set_global_threads(1);
}
BENCHMARK(BM_EnvelopeSealThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Miller-Rabin on a 512-bit prime: 20 pooled witness rounds per call.
void BM_MillerRabinThreads(benchmark::State& state) {
  Rng gen(14);
  const crypto::BigInt prime = crypto::BigInt::generate_prime(gen, 512);
  ThreadPool::set_global_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Rng rng(15);
    benchmark::DoNotOptimize(prime.is_probable_prime(rng));
  }
  ThreadPool::set_global_threads(1);
}
BENCHMARK(BM_MillerRabinThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Raw pool dispatch cost: 1024 near-empty iterations per region.
void BM_ParallelForOverhead(benchmark::State& state) {
  ThreadPool::set_global_threads(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> out(1024);
  for (auto _ : state) {
    ThreadPool::global().parallel_for(out.size(), [&](std::size_t i) {
      out[i] = i * 2654435761u;
    });
    benchmark::DoNotOptimize(out.data());
  }
  ThreadPool::set_global_threads(1);
}
BENCHMARK(BM_ParallelForOverhead)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
