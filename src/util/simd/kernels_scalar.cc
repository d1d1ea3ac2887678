// Scalar baseline kernel table. Built with the project's default flags —
// no -m options — so it runs on any CPU the binary itself runs on and
// stays the oracle-adjacent floor every vector tier is benchmarked and
// cross-checked against.

#include <cstddef>
#include <cstdint>

#include "util/simd/simd.h"

namespace farmer {
namespace simd {
namespace {

#include "util/simd/kernels_portable.inc"

}  // namespace

const KernelTable& ScalarKernels() {
  static constexpr KernelTable kTable = {
      Level::kScalar,     "scalar",
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
