// Flavor metadata. A "flavor" is one concrete implementation of a logical
// primitive; the Primitive Dictionary maps a signature string to the set
// of flavors registered for it (paper §3.1).
//
// Flavor entries are immutable once registered: PrimitiveInstances
// snapshot the function pointers at construction and keep all usage
// accounting thread-local, so any number of worker threads can dispatch
// through the same dictionary without synchronization (morsel-driven
// parallelism relies on this).
#ifndef MA_REGISTRY_FLAVOR_H_
#define MA_REGISTRY_FLAVOR_H_

#include <string>
#include <vector>

#include "prim/prim_call.h"

namespace ma {

/// Identifies which flavor-generation mechanism produced a flavor. These
/// are the paper's five flavor sets plus the always-present default.
enum class FlavorSetId : u8 {
  kDefault = 0,   // the single canonical implementation
  kBranch,        // branching vs no-branching selections (§1, §2)
  kCompiler,      // different build environments (§2 "Compiler Variation")
  kFission,       // loop fission: bloom probe, hash insert-check (§2)
  kFullCompute,   // full vs selective computation (§2)
  kUnroll,        // hand loop unrolling (§2)
  kSimd,          // explicit AVX2/SSE4 kernels, runtime CPUID-detected
  kNumSets,
};

const char* FlavorSetName(FlavorSetId id);

struct FlavorInfo {
  /// Short human name, e.g. "branching", "gcc", "fission".
  std::string name;
  /// Which flavor set this implementation belongs to.
  FlavorSetId set = FlavorSetId::kDefault;
  /// The implementation.
  PrimFn fn = nullptr;
};

/// All flavors registered under one primitive signature.
struct FlavorEntry {
  std::string signature;
  std::vector<FlavorInfo> flavors;

  /// Index of the flavor used when adaptivity is disabled (first
  /// registered kDefault flavor, else flavor 0).
  int default_index = 0;

  int FindFlavor(std::string_view name) const;
};

}  // namespace ma

#endif  // MA_REGISTRY_FLAVOR_H_
