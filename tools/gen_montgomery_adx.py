#!/usr/bin/env python3
"""Generate src/crypto/montgomery_adx.cpp, the x86-64 MULX/ADCX/ADOX
Montgomery product for 8-limb (512-bit) moduli.

  python3 tools/gen_montgomery_adx.py src/crypto/montgomery_adx.cpp

Without an argument the file goes to stdout. CI regenerates it and fails on
any difference, so edit this script, never the output.

The kernel is operand scanning (CIOS) with every row unrolled:

  for i in 0..7:  t += a * b[i]            (t: 10 limbs, all in registers)
                  m  = t[0] * -n^-1 mod 2^64
                  t  = (t + m * n) / 2^64  (t[0] is now zero: rename, no move)

Each row runs two carry chains at once: ADCX adds the low halves of the
MULX products and ADOX the high halves, so neither waits on the other's
flag. Dividing by 2^64 renames the registers instead of moving ten limbs.
With a, b < n every row ends with t < 2n, so t[8] is 0 or 1 and one
subtraction of n, picked by CMOV, lands the result in [0, n). `out` is
written only after the last read of `a` and `b`, so it may alias either.
"""
import sys

# SysV arguments: out, a, b, n, n0inv.
OUT, A, B, N, N0INV = "rdi", "rsi", "rdx", "rcx", "r8"
LO, HI = "rax", "rbp"
# t[0..9]; rdi and r8 are free once `out` and n0inv are on the stack.
T = ["rdi", "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rbx"]
SAVED = ["rbx", "rbp", "r12", "r13", "r14", "r15"]
LIMBS = 8
# Frame: b[0..7], then `out`, then n0inv.
B_COPY, OUT_SLOT, N0INV_SLOT, FRAME = 0, 64, 72, 80

SYMBOL = "veil_mont_mul8_adx"


def r(name):
    return "%" + name


def mem(base, offset=0):
    return f"{offset}(%{base})" if offset else f"(%{base})"


def low32(reg):
    return {"rax": "eax", "rbx": "ebx", "rcx": "ecx", "rdx": "edx",
            "rsi": "esi", "rdi": "edi", "rbp": "ebp"}.get(reg, reg + "d")


def kernel():
    out = []

    def emit(op, *args):
        out.append(f"{op} {', '.join(args)}" if args else op)

    emit("endbr64")
    for reg in SAVED:
        emit("pushq", r(reg))
    emit("subq", f"${FRAME}", r("rsp"))
    # b goes to the frame, so its pointer register can hold a limb of t.
    for j in range(LIMBS):
        emit("movq", mem(B, 8 * j), r(LO))
        emit("movq", r(LO), mem("rsp", B_COPY + 8 * j))
    emit("movq", r(OUT), mem("rsp", OUT_SLOT))
    emit("movq", r(N0INV), mem("rsp", N0INV_SLOT))

    t = list(T)
    for i in range(LIMBS):
        out.append(f"# row {i}: t += a * b[{i}]")
        emit("movq", mem("rsp", B_COPY + 8 * i), r("rdx"))
        # t[9] = 0, which also clears CF and OF for the chains below.
        emit("xorl", r(low32(t[9])), r(low32(t[9])))
        if i == 0:
            # t is zero: one carry chain writes t[0..8] directly.
            emit("mulxq", mem(A), r(t[0]), r(t[1]))
            for j in range(1, LIMBS):
                emit("mulxq", mem(A, 8 * j), r(LO), r(t[j + 1]))
                emit("addq" if j == 1 else "adcq", r(LO), r(t[j]))
            emit("adcq", "$0", r(t[8]))
        else:
            for j in range(LIMBS):
                emit("mulxq", mem(A, 8 * j), r(LO), r(HI))
                emit("adcxq", r(LO), r(t[j]))
                emit("adoxq", r(HI), r(t[j + 1]))
            emit("adcxq", r(t[9]), r(t[8]))  # t[9] is still zero
            emit("adoxq", r(t[9]), r(t[9]))
            emit("adcq", "$0", r(t[9]))
        out.append(f"# row {i}: t = (t + m * n) / 2^64")
        emit("movq", r(t[0]), r("rdx"))
        emit("imulq", mem("rsp", N0INV_SLOT), r("rdx"))
        emit("xorl", r(low32(LO)), r(low32(LO)))  # CF = OF = 0
        for j in range(LIMBS):
            emit("mulxq", mem(N, 8 * j), r(LO), r(HI))
            emit("adcxq", r(LO), r(t[j]))
            emit("adoxq", r(HI), r(t[j + 1]))
        emit("movl", "$0", r(low32(LO)))  # keeps the flags
        emit("adcxq", r(LO), r(t[8]))
        emit("adoxq", r(LO), r(t[9]))
        emit("adcxq", r(LO), r(t[9]))
        t = t[1:] + t[:1]

    out.append("# out = t < n ? t : t - n")
    emit("movq", mem("rsp", OUT_SLOT), r("rdx"))
    for j in range(LIMBS):
        emit("movq", r(t[j]), mem("rdx", 8 * j))
    emit("subq", mem(N), r(t[0]))
    for j in range(1, LIMBS):
        emit("sbbq", mem(N, 8 * j), r(t[j]))
    emit("sbbq", "$0", r(t[8]))  # CF: t < n, keep the stored t
    for j in range(LIMBS):
        emit("cmovcq", mem("rdx", 8 * j), r(t[j]))
        emit("movq", r(t[j]), mem("rdx", 8 * j))

    emit("addq", f"${FRAME}", r("rsp"))
    for reg in reversed(SAVED):
        emit("popq", r(reg))
    emit("ret")
    return out


HEADER = """\
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
"""

FOOTER = """\
)");
// clang-format on

#else

namespace veil::crypto::mont_detail {{

extern "C" void {symbol}(Limb* out, const Limb* a, const Limb* b,
                                   const Limb* n, Limb n0inv) {{
  mul_portable<8>(out, a, b, n, n0inv);
}}

}}  // namespace veil::crypto::mont_detail

#endif
"""


def render():
    lines = [HEADER.rstrip("\n")]
    lines += [".pushsection .text", ".p2align 4", f".globl {SYMBOL}",
              f".type {SYMBOL}, @function", f"{SYMBOL}:"]
    lines += ["  " + ins for ins in kernel()]
    lines += [f".size {SYMBOL}, .-{SYMBOL}", ".popsection"]
    return "\n".join(lines) + "\n" + FOOTER.format(symbol=SYMBOL)


def main():
    text = render()
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
