/**
 * @file
 * The compiled op-tape kernel behind sim::BatchSim (DESIGN.md §3h).
 *
 * simdEvalOps() evaluates a tape's op program over the SoA value array
 * with platform vector kernels — one dispatch per levelized same-opcode
 * run instead of per op. ISA selection happens once per call:
 *
 *   P >= 4 and the CPU has AVX2  ->  4-lane AVX2 kernel (separate TU,
 *                                    only one compiled with -mavx2)
 *   P a multiple of the baseline ->  2-lane SSE2 / NEON, or the
 *   vector width                     portable 4-lane kernel
 *   otherwise                    ->  scalar kernel (P = 1, and P = 2
 *                                    on the portable build)
 *
 * Bit-identical to the interpreted Simulator by construction; the
 * differential suites enforce it.
 */

#ifndef SIM_SIMD_HH
#define SIM_SIMD_HH

#include <cstdint>

#include "sim/tape.hh"

namespace rmp::sim
{

/** Evaluate @p tp's op program over @p P physical lanes of @p vals
 *  (vals[slot * P + lane]; P a power of two in [1, kMaxLanes]). */
void simdEvalOps(const Tape &tp, uint64_t *vals, unsigned P);

} // namespace rmp::sim

#endif // SIM_SIMD_HH
