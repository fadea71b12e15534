// GENERATED by tools/gen_montgomery_adx.py -- do not edit by hand.
//
// The 8-limb Montgomery product with MULX, ADCX and ADOX (x86-64 BMI2 and
// ADX). MontgomeryCtx::mul<8> calls it only when cpu_has_adx_bmi2() holds;
// the algorithm is described in the generator. The kernel is file-scope
// asm in a C++ file so every CMake project that compiles src/ builds it
// without enabling a second language. Elsewhere the portable kernel
// stands in under the same name.
#include "crypto/montgomery_kernel.hpp"

#if defined(__x86_64__) && defined(__ELF__)

// clang-format off
asm(R"(
.pushsection .text
.p2align 4
.globl veil_mont_mul8_adx
.type veil_mont_mul8_adx, @function
veil_mont_mul8_adx:
  endbr64
  pushq %rbx
  pushq %rbp
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $80, %rsp
  movq (%rdx), %rax
  movq %rax, (%rsp)
  movq 8(%rdx), %rax
  movq %rax, 8(%rsp)
  movq 16(%rdx), %rax
  movq %rax, 16(%rsp)
  movq 24(%rdx), %rax
  movq %rax, 24(%rsp)
  movq 32(%rdx), %rax
  movq %rax, 32(%rsp)
  movq 40(%rdx), %rax
  movq %rax, 40(%rsp)
  movq 48(%rdx), %rax
  movq %rax, 48(%rsp)
  movq 56(%rdx), %rax
  movq %rax, 56(%rsp)
  movq %rdi, 64(%rsp)
  movq %r8, 72(%rsp)
  # row 0: t += a * b[0]
  movq (%rsp), %rdx
  xorl %ebx, %ebx
  mulxq (%rsi), %rdi, %r8
  mulxq 8(%rsi), %rax, %r9
  addq %rax, %r8
  mulxq 16(%rsi), %rax, %r10
  adcq %rax, %r9
  mulxq 24(%rsi), %rax, %r11
  adcq %rax, %r10
  mulxq 32(%rsi), %rax, %r12
  adcq %rax, %r11
  mulxq 40(%rsi), %rax, %r13
  adcq %rax, %r12
  mulxq 48(%rsi), %rax, %r14
  adcq %rax, %r13
  mulxq 56(%rsi), %rax, %r15
  adcq %rax, %r14
  adcq $0, %r15
  # row 0: t = (t + m * n) / 2^64
  movq %rdi, %rdx
  imulq 72(%rsp), %rdx
  xorl %eax, %eax
  mulxq (%rcx), %rax, %rbp
  adcxq %rax, %rdi
  adoxq %rbp, %r8
  mulxq 8(%rcx), %rax, %rbp
  adcxq %rax, %r8
  adoxq %rbp, %r9
  mulxq 16(%rcx), %rax, %rbp
  adcxq %rax, %r9
  adoxq %rbp, %r10
  mulxq 24(%rcx), %rax, %rbp
  adcxq %rax, %r10
  adoxq %rbp, %r11
  mulxq 32(%rcx), %rax, %rbp
  adcxq %rax, %r11
  adoxq %rbp, %r12
  mulxq 40(%rcx), %rax, %rbp
  adcxq %rax, %r12
  adoxq %rbp, %r13
  mulxq 48(%rcx), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 56(%rcx), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  movl $0, %eax
  adcxq %rax, %r15
  adoxq %rax, %rbx
  adcxq %rax, %rbx
  # row 1: t += a * b[1]
  movq 8(%rsp), %rdx
  xorl %edi, %edi
  mulxq (%rsi), %rax, %rbp
  adcxq %rax, %r8
  adoxq %rbp, %r9
  mulxq 8(%rsi), %rax, %rbp
  adcxq %rax, %r9
  adoxq %rbp, %r10
  mulxq 16(%rsi), %rax, %rbp
  adcxq %rax, %r10
  adoxq %rbp, %r11
  mulxq 24(%rsi), %rax, %rbp
  adcxq %rax, %r11
  adoxq %rbp, %r12
  mulxq 32(%rsi), %rax, %rbp
  adcxq %rax, %r12
  adoxq %rbp, %r13
  mulxq 40(%rsi), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 48(%rsi), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 56(%rsi), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  adcxq %rdi, %rbx
  adoxq %rdi, %rdi
  adcq $0, %rdi
  # row 1: t = (t + m * n) / 2^64
  movq %r8, %rdx
  imulq 72(%rsp), %rdx
  xorl %eax, %eax
  mulxq (%rcx), %rax, %rbp
  adcxq %rax, %r8
  adoxq %rbp, %r9
  mulxq 8(%rcx), %rax, %rbp
  adcxq %rax, %r9
  adoxq %rbp, %r10
  mulxq 16(%rcx), %rax, %rbp
  adcxq %rax, %r10
  adoxq %rbp, %r11
  mulxq 24(%rcx), %rax, %rbp
  adcxq %rax, %r11
  adoxq %rbp, %r12
  mulxq 32(%rcx), %rax, %rbp
  adcxq %rax, %r12
  adoxq %rbp, %r13
  mulxq 40(%rcx), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 48(%rcx), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 56(%rcx), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  movl $0, %eax
  adcxq %rax, %rbx
  adoxq %rax, %rdi
  adcxq %rax, %rdi
  # row 2: t += a * b[2]
  movq 16(%rsp), %rdx
  xorl %r8d, %r8d
  mulxq (%rsi), %rax, %rbp
  adcxq %rax, %r9
  adoxq %rbp, %r10
  mulxq 8(%rsi), %rax, %rbp
  adcxq %rax, %r10
  adoxq %rbp, %r11
  mulxq 16(%rsi), %rax, %rbp
  adcxq %rax, %r11
  adoxq %rbp, %r12
  mulxq 24(%rsi), %rax, %rbp
  adcxq %rax, %r12
  adoxq %rbp, %r13
  mulxq 32(%rsi), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 40(%rsi), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 48(%rsi), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 56(%rsi), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  adcxq %r8, %rdi
  adoxq %r8, %r8
  adcq $0, %r8
  # row 2: t = (t + m * n) / 2^64
  movq %r9, %rdx
  imulq 72(%rsp), %rdx
  xorl %eax, %eax
  mulxq (%rcx), %rax, %rbp
  adcxq %rax, %r9
  adoxq %rbp, %r10
  mulxq 8(%rcx), %rax, %rbp
  adcxq %rax, %r10
  adoxq %rbp, %r11
  mulxq 16(%rcx), %rax, %rbp
  adcxq %rax, %r11
  adoxq %rbp, %r12
  mulxq 24(%rcx), %rax, %rbp
  adcxq %rax, %r12
  adoxq %rbp, %r13
  mulxq 32(%rcx), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 40(%rcx), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 48(%rcx), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 56(%rcx), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  movl $0, %eax
  adcxq %rax, %rdi
  adoxq %rax, %r8
  adcxq %rax, %r8
  # row 3: t += a * b[3]
  movq 24(%rsp), %rdx
  xorl %r9d, %r9d
  mulxq (%rsi), %rax, %rbp
  adcxq %rax, %r10
  adoxq %rbp, %r11
  mulxq 8(%rsi), %rax, %rbp
  adcxq %rax, %r11
  adoxq %rbp, %r12
  mulxq 16(%rsi), %rax, %rbp
  adcxq %rax, %r12
  adoxq %rbp, %r13
  mulxq 24(%rsi), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 32(%rsi), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 40(%rsi), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 48(%rsi), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  mulxq 56(%rsi), %rax, %rbp
  adcxq %rax, %rdi
  adoxq %rbp, %r8
  adcxq %r9, %r8
  adoxq %r9, %r9
  adcq $0, %r9
  # row 3: t = (t + m * n) / 2^64
  movq %r10, %rdx
  imulq 72(%rsp), %rdx
  xorl %eax, %eax
  mulxq (%rcx), %rax, %rbp
  adcxq %rax, %r10
  adoxq %rbp, %r11
  mulxq 8(%rcx), %rax, %rbp
  adcxq %rax, %r11
  adoxq %rbp, %r12
  mulxq 16(%rcx), %rax, %rbp
  adcxq %rax, %r12
  adoxq %rbp, %r13
  mulxq 24(%rcx), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 32(%rcx), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 40(%rcx), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 48(%rcx), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  mulxq 56(%rcx), %rax, %rbp
  adcxq %rax, %rdi
  adoxq %rbp, %r8
  movl $0, %eax
  adcxq %rax, %r8
  adoxq %rax, %r9
  adcxq %rax, %r9
  # row 4: t += a * b[4]
  movq 32(%rsp), %rdx
  xorl %r10d, %r10d
  mulxq (%rsi), %rax, %rbp
  adcxq %rax, %r11
  adoxq %rbp, %r12
  mulxq 8(%rsi), %rax, %rbp
  adcxq %rax, %r12
  adoxq %rbp, %r13
  mulxq 16(%rsi), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 24(%rsi), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 32(%rsi), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 40(%rsi), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  mulxq 48(%rsi), %rax, %rbp
  adcxq %rax, %rdi
  adoxq %rbp, %r8
  mulxq 56(%rsi), %rax, %rbp
  adcxq %rax, %r8
  adoxq %rbp, %r9
  adcxq %r10, %r9
  adoxq %r10, %r10
  adcq $0, %r10
  # row 4: t = (t + m * n) / 2^64
  movq %r11, %rdx
  imulq 72(%rsp), %rdx
  xorl %eax, %eax
  mulxq (%rcx), %rax, %rbp
  adcxq %rax, %r11
  adoxq %rbp, %r12
  mulxq 8(%rcx), %rax, %rbp
  adcxq %rax, %r12
  adoxq %rbp, %r13
  mulxq 16(%rcx), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 24(%rcx), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 32(%rcx), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 40(%rcx), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  mulxq 48(%rcx), %rax, %rbp
  adcxq %rax, %rdi
  adoxq %rbp, %r8
  mulxq 56(%rcx), %rax, %rbp
  adcxq %rax, %r8
  adoxq %rbp, %r9
  movl $0, %eax
  adcxq %rax, %r9
  adoxq %rax, %r10
  adcxq %rax, %r10
  # row 5: t += a * b[5]
  movq 40(%rsp), %rdx
  xorl %r11d, %r11d
  mulxq (%rsi), %rax, %rbp
  adcxq %rax, %r12
  adoxq %rbp, %r13
  mulxq 8(%rsi), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 16(%rsi), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 24(%rsi), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 32(%rsi), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  mulxq 40(%rsi), %rax, %rbp
  adcxq %rax, %rdi
  adoxq %rbp, %r8
  mulxq 48(%rsi), %rax, %rbp
  adcxq %rax, %r8
  adoxq %rbp, %r9
  mulxq 56(%rsi), %rax, %rbp
  adcxq %rax, %r9
  adoxq %rbp, %r10
  adcxq %r11, %r10
  adoxq %r11, %r11
  adcq $0, %r11
  # row 5: t = (t + m * n) / 2^64
  movq %r12, %rdx
  imulq 72(%rsp), %rdx
  xorl %eax, %eax
  mulxq (%rcx), %rax, %rbp
  adcxq %rax, %r12
  adoxq %rbp, %r13
  mulxq 8(%rcx), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 16(%rcx), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 24(%rcx), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 32(%rcx), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  mulxq 40(%rcx), %rax, %rbp
  adcxq %rax, %rdi
  adoxq %rbp, %r8
  mulxq 48(%rcx), %rax, %rbp
  adcxq %rax, %r8
  adoxq %rbp, %r9
  mulxq 56(%rcx), %rax, %rbp
  adcxq %rax, %r9
  adoxq %rbp, %r10
  movl $0, %eax
  adcxq %rax, %r10
  adoxq %rax, %r11
  adcxq %rax, %r11
  # row 6: t += a * b[6]
  movq 48(%rsp), %rdx
  xorl %r12d, %r12d
  mulxq (%rsi), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 8(%rsi), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 16(%rsi), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 24(%rsi), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  mulxq 32(%rsi), %rax, %rbp
  adcxq %rax, %rdi
  adoxq %rbp, %r8
  mulxq 40(%rsi), %rax, %rbp
  adcxq %rax, %r8
  adoxq %rbp, %r9
  mulxq 48(%rsi), %rax, %rbp
  adcxq %rax, %r9
  adoxq %rbp, %r10
  mulxq 56(%rsi), %rax, %rbp
  adcxq %rax, %r10
  adoxq %rbp, %r11
  adcxq %r12, %r11
  adoxq %r12, %r12
  adcq $0, %r12
  # row 6: t = (t + m * n) / 2^64
  movq %r13, %rdx
  imulq 72(%rsp), %rdx
  xorl %eax, %eax
  mulxq (%rcx), %rax, %rbp
  adcxq %rax, %r13
  adoxq %rbp, %r14
  mulxq 8(%rcx), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 16(%rcx), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 24(%rcx), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  mulxq 32(%rcx), %rax, %rbp
  adcxq %rax, %rdi
  adoxq %rbp, %r8
  mulxq 40(%rcx), %rax, %rbp
  adcxq %rax, %r8
  adoxq %rbp, %r9
  mulxq 48(%rcx), %rax, %rbp
  adcxq %rax, %r9
  adoxq %rbp, %r10
  mulxq 56(%rcx), %rax, %rbp
  adcxq %rax, %r10
  adoxq %rbp, %r11
  movl $0, %eax
  adcxq %rax, %r11
  adoxq %rax, %r12
  adcxq %rax, %r12
  # row 7: t += a * b[7]
  movq 56(%rsp), %rdx
  xorl %r13d, %r13d
  mulxq (%rsi), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 8(%rsi), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 16(%rsi), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  mulxq 24(%rsi), %rax, %rbp
  adcxq %rax, %rdi
  adoxq %rbp, %r8
  mulxq 32(%rsi), %rax, %rbp
  adcxq %rax, %r8
  adoxq %rbp, %r9
  mulxq 40(%rsi), %rax, %rbp
  adcxq %rax, %r9
  adoxq %rbp, %r10
  mulxq 48(%rsi), %rax, %rbp
  adcxq %rax, %r10
  adoxq %rbp, %r11
  mulxq 56(%rsi), %rax, %rbp
  adcxq %rax, %r11
  adoxq %rbp, %r12
  adcxq %r13, %r12
  adoxq %r13, %r13
  adcq $0, %r13
  # row 7: t = (t + m * n) / 2^64
  movq %r14, %rdx
  imulq 72(%rsp), %rdx
  xorl %eax, %eax
  mulxq (%rcx), %rax, %rbp
  adcxq %rax, %r14
  adoxq %rbp, %r15
  mulxq 8(%rcx), %rax, %rbp
  adcxq %rax, %r15
  adoxq %rbp, %rbx
  mulxq 16(%rcx), %rax, %rbp
  adcxq %rax, %rbx
  adoxq %rbp, %rdi
  mulxq 24(%rcx), %rax, %rbp
  adcxq %rax, %rdi
  adoxq %rbp, %r8
  mulxq 32(%rcx), %rax, %rbp
  adcxq %rax, %r8
  adoxq %rbp, %r9
  mulxq 40(%rcx), %rax, %rbp
  adcxq %rax, %r9
  adoxq %rbp, %r10
  mulxq 48(%rcx), %rax, %rbp
  adcxq %rax, %r10
  adoxq %rbp, %r11
  mulxq 56(%rcx), %rax, %rbp
  adcxq %rax, %r11
  adoxq %rbp, %r12
  movl $0, %eax
  adcxq %rax, %r12
  adoxq %rax, %r13
  adcxq %rax, %r13
  # out = t < n ? t : t - n
  movq 64(%rsp), %rdx
  movq %r15, (%rdx)
  movq %rbx, 8(%rdx)
  movq %rdi, 16(%rdx)
  movq %r8, 24(%rdx)
  movq %r9, 32(%rdx)
  movq %r10, 40(%rdx)
  movq %r11, 48(%rdx)
  movq %r12, 56(%rdx)
  subq (%rcx), %r15
  sbbq 8(%rcx), %rbx
  sbbq 16(%rcx), %rdi
  sbbq 24(%rcx), %r8
  sbbq 32(%rcx), %r9
  sbbq 40(%rcx), %r10
  sbbq 48(%rcx), %r11
  sbbq 56(%rcx), %r12
  sbbq $0, %r13
  cmovcq (%rdx), %r15
  movq %r15, (%rdx)
  cmovcq 8(%rdx), %rbx
  movq %rbx, 8(%rdx)
  cmovcq 16(%rdx), %rdi
  movq %rdi, 16(%rdx)
  cmovcq 24(%rdx), %r8
  movq %r8, 24(%rdx)
  cmovcq 32(%rdx), %r9
  movq %r9, 32(%rdx)
  cmovcq 40(%rdx), %r10
  movq %r10, 40(%rdx)
  cmovcq 48(%rdx), %r11
  movq %r11, 48(%rdx)
  cmovcq 56(%rdx), %r12
  movq %r12, 56(%rdx)
  addq $80, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbp
  popq %rbx
  ret
.size veil_mont_mul8_adx, .-veil_mont_mul8_adx
.popsection
)");
// clang-format on

#else

namespace veil::crypto::mont_detail {

extern "C" void veil_mont_mul8_adx(Limb* out, const Limb* a, const Limb* b,
                                   const Limb* n, Limb n0inv) {
  mul_portable<8>(out, a, b, n, n0inv);
}

}  // namespace veil::crypto::mont_detail

#endif
