#include "perfbench/rounds.h"

#include <sys/mman.h>

#include <cstring>

namespace mvbench {

double ReferenceSeconds(Reference kind) {
  const int64_t start = NowNs();
  if (kind == Reference::kMemory) {
    // Fresh pages from the kernel every time, as the VM's guest memory gets
    // them; a heap allocation could reuse pages already faulted in.
    constexpr size_t kBytes = 16 << 20;
    void* pages = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED) {
      return 0;
    }
    std::memset(pages, 0, kBytes);
    munmap(pages, kBytes);
    return static_cast<double>(NowNs() - start) * 1e-9;
  }
  // A switch-dispatched loop over a 64 KiB table, like an interpreter's. The
  // table gets fresh pages each time too, so no one placement of it in the
  // caches decides the run's factor.
  constexpr size_t kTable = 64 << 10;
  void* pages = mmap(nullptr, kTable, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    return 0;
  }
  auto* table = static_cast<uint8_t*>(pages);
  uint64_t acc = 1;
  for (int pass = 0; pass < 10; ++pass) {
    for (size_t i = 0; i < kTable; ++i) {
      switch ((table[i] + i + acc) & 7) {
        case 0: acc += i; break;
        case 1: acc ^= acc >> 3; break;
        case 2: acc *= 0x9e3779b97f4a7c15ull; break;
        case 3: acc -= table[(i * 7) & (kTable - 1)]; break;
        case 4: acc = (acc << 5) | (acc >> 59); break;
        case 5: acc += acc >> 11; break;
        case 6: acc ^= i * 31; break;
        default: acc += 7; break;
      }
      table[i] = static_cast<uint8_t>(acc);
    }
  }
  munmap(pages, kTable);
  static volatile uint64_t sink;  // keeps the loop from being optimised away
  sink = acc;
  (void)sink;
  return static_cast<double>(NowNs() - start) * 1e-9;
}

}  // namespace mvbench
