// SSE4.2/POPCNT kernel table: the portable loops recompiled with
// -msse4.2 -mpopcnt (see src/util/CMakeLists.txt). The win over the
// scalar unit is entirely in code generation — one hardware POPCNT per
// word instead of libgcc's __popcountdi2 table walk, plus 128-bit
// moves for the combine loops — so the source is the shared .inc and
// this file adds nothing by hand.
//
// When the toolchain rejects the flags the build drops this file and
// simd.cc aliases the tier to the scalar table (LevelCompiled == false).

#include <cstddef>
#include <cstdint>

#include "util/simd/simd.h"

#if defined(__POPCNT__)

namespace farmer {
namespace simd {
namespace {

#include "util/simd/kernels_portable.inc"

}  // namespace

const KernelTable& Sse42Kernels() {
  static constexpr KernelTable kTable = {
      Level::kSse42,      "sse42",
      PortableCount,      PortableAndCount,
      PortableIntersects, PortableIsSubsetOf,
      PortableNone,       PortableAndInto,
      PortableAndNotInto, PortableOrAnd,
      PortableAndInplace, PortableOrInplace,
      PortableAndNotInplace,
  };
  return kTable;
}

}  // namespace simd
}  // namespace farmer

#else  // !defined(__POPCNT__)

// Built without the tier's flags (unsupported toolchain or non-x86
// target): alias scalar so the symbol links; the dispatcher sees the
// mismatched table level and reports the tier as not compiled.
namespace farmer {
namespace simd {
const KernelTable& Sse42Kernels() { return ScalarKernels(); }
}  // namespace simd
}  // namespace farmer

#endif  // defined(__POPCNT__)
