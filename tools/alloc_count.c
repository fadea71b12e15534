/* Heap-allocation counter, loaded with LD_PRELOAD (glibc only).
 *
 *   cc -O2 -shared -fPIC -o alloc_count.so tools/alloc_count.c
 *   LD_PRELOAD=./alloc_count.so ./program ...
 *
 * Counts malloc, calloc and realloc calls (C++ operator new goes through
 * malloc) and prints "alloc_count: N" to stderr when the process exits.
 * docs/state_store.md describes how to turn two runs into a per-commit
 * figure. */
#include <stdatomic.h>
#include <stddef.h>
#include <stdio.h>

extern void* __libc_malloc(size_t n);
extern void* __libc_calloc(size_t n, size_t size);
extern void* __libc_realloc(void* p, size_t n);

static atomic_ulong allocations;

void* malloc(size_t n) {
  atomic_fetch_add_explicit(&allocations, 1, memory_order_relaxed);
  return __libc_malloc(n);
}

void* calloc(size_t n, size_t size) {
  atomic_fetch_add_explicit(&allocations, 1, memory_order_relaxed);
  return __libc_calloc(n, size);
}

void* realloc(void* p, size_t n) {
  atomic_fetch_add_explicit(&allocations, 1, memory_order_relaxed);
  return __libc_realloc(p, n);
}

__attribute__((destructor)) static void report(void) {
  fprintf(stderr, "alloc_count: %lu\n", atomic_load(&allocations));
}
