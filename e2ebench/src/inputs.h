#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace e2ebench {

/// Builds a workload's dialects, request pool and send sequence from
/// `seed` alone (references are filled in later by `ComputeReferences`).
/// Fails on an unknown name.
sqlpl::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Canonical byte serialization of everything a workload sends: dialect
/// specs, pool statements and the sequence. Equal seeds must give equal
/// bytes (the determinism test compares two processes' output).
std::string SerializeInputs(const Workload& workload);

}  // namespace e2ebench

#endif  // E2EBENCH_INPUTS_H_
