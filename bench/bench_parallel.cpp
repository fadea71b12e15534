// Symmetric-kernel throughput (google-benchmark → BENCH_symmetric.json
// via bench/run_benches.sh): AES-CTR and SHA-256 on 64 KiB buffers —
// hardware (AES-NI / SHA-NI) vs software (T-table / scalar) vs the
// byte-wise reference baseline. Hardware rows register only on machines
// whose CPUID reports the extensions.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace veil;
using common::Bytes;
using common::Rng;

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

}  // namespace

BENCHMARK_MAIN();
