#include "crypto/cpu_features.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace veil::crypto {

namespace {

struct Features {
  bool aesni = false;
  bool shani = false;
  bool sse41 = false;
  bool adx_bmi2 = false;
};

Features detect() {
  Features f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.aesni = (ecx & (1u << 25)) != 0;
    f.sse41 = (ecx & (1u << 19)) != 0;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.shani = (ebx & (1u << 29)) != 0;
    f.adx_bmi2 = (ebx & (1u << 8)) != 0 && (ebx & (1u << 19)) != 0;
  }
#endif
  return f;
}

const Features& features() {
  static const Features f = detect();
  return f;
}

}  // namespace

bool cpu_has_aesni() { return features().aesni; }
bool cpu_has_shani() { return features().shani; }
bool cpu_has_sse41() { return features().sse41; }
bool cpu_has_adx_bmi2() { return features().adx_bmi2; }

}  // namespace veil::crypto
