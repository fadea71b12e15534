// Runtime CPU feature detection for the symmetric-crypto kernel dispatch.
//
// The AES and SHA-256 implementations each carry a hardware path (AES-NI,
// SHA-NI) and a portable software path; the choice is made once at
// startup from CPUID and can be overridden per-kernel for tests and
// benchmarks (see aes.hpp / sha256.hpp). The 512-bit Montgomery product
// takes its MULX/ADX path whenever CPUID reports it, with no override.
#pragma once

namespace veil::crypto {

/// AES-NI (AESENC/AESDEC) available on this CPU.
bool cpu_has_aesni();

/// SHA extensions (SHA256RNDS2/SHA256MSG1/SHA256MSG2) available.
bool cpu_has_shani();

/// SSE4.1, required by both hardware kernels' shuffle/blend setup.
bool cpu_has_sse41();

/// BMI2 (MULX) and ADX (ADCX/ADOX), both required by the 512-bit
/// Montgomery product in montgomery_adx.cpp.
bool cpu_has_adx_bmi2();

}  // namespace veil::crypto
