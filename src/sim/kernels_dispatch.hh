/**
 * @file
 * Per-kernel function-pointer table behind sim/kernels.hh.
 *
 * Each compiled tier (kernels_scalar.cc, kernels_avx2.cc) exposes
 * one immutable KernelTable; kernels.cc resolves the active table
 * once (simd::activeIsa()) and forwards every public kernel that
 * has an AVX2 body through it. The AVX2 TU implements only the
 * full-width main loops and delegates its tails to the scalar table,
 * so each element is computed by exactly one expression sequence no
 * matter which tier runs.
 *
 * This header is internal to sim/ and the ISA-equivalence tests;
 * everything else calls the plain functions in kernels.hh.
 */

#ifndef FRACDRAM_SIM_KERNELS_DISPATCH_HH
#define FRACDRAM_SIM_KERNELS_DISPATCH_HH

#include <cstddef>
#include <cstdint>

#include "common/simd/simd.hh"

namespace fracdram::sim::kernels
{

/** One tier's implementation of every kernel with a vector body. */
struct KernelTable
{
    void (*chargeAccumulate)(double *num, double *den,
                             const float *volts, const float *coupling,
                             double weight, std::size_t n);
    void (*equilibrium)(double *eq, const double *num,
                        const double *den, std::size_t n);
    void (*driveRails)(float *volts, const std::uint8_t *dec,
                       float vdd, std::size_t n);
    void (*fillFromBits)(float *volts, const std::uint64_t *words,
                         bool invert, float vdd, std::size_t n);
    void (*packDecisions)(std::uint64_t *words,
                          const std::uint8_t *dec, bool invert,
                          std::size_t n);
};

/** The scalar reference tier (always compiled). */
const KernelTable &scalarKernelTable();

#if FRACDRAM_HAVE_AVX2
/** AVX2 tier (kernels_avx2.cc; present when the build compiled it). */
const KernelTable &avx2KernelTable();
#endif

/**
 * Table for a specific tier; nullptr when that tier was not compiled
 * into this binary or this machine cannot execute it. Used by the
 * ISA-equivalence property tests to compare every runnable tier
 * against the scalar reference in one process.
 */
const KernelTable *kernelTableForIsa(simd::Isa isa);

/** The table the public kernels.hh entry points dispatch to. */
const KernelTable &activeKernelTable();

} // namespace fracdram::sim::kernels

#endif // FRACDRAM_SIM_KERNELS_DISPATCH_HH
