/**
 * @file
 * Public kernel entry points: one indirect call through the table
 * resolved for simd::activeIsa(). Resolution happens once behind a
 * function-local static (thread-safe under C++ magic-static rules -
 * the tsan suite exercises first-touch from multiple shard threads);
 * after that each call is a load plus an indirect jump, irrelevant at
 * row-wide granularity. The kernels with only a scalar body
 * (decayMultiply, senseDecide, settleToward, fracSettle,
 * restoreTruncate) call it directly; DESIGN.md 5h says why.
 */

#include "sim/kernels.hh"

#include "sim/kernels_scalar.hh"

namespace fracdram::sim::kernels
{

const KernelTable *
kernelTableForIsa(simd::Isa isa)
{
    switch (isa) {
    case simd::Isa::Scalar:
        return &scalarKernelTable();
    case simd::Isa::Avx2:
#if FRACDRAM_HAVE_AVX2
        if (simd::cpuFeatures().avx2)
            return &avx2KernelTable();
#endif
        return nullptr;
    }
    return nullptr;
}

const KernelTable &
activeKernelTable()
{
    static const KernelTable &table = *kernelTableForIsa(
        simd::activeIsa());
    return table;
}

void
decayMultiply(float *volts, const double *mul, std::size_t n)
{
    scalar::decayMultiply(volts, mul, n);
}

void
chargeAccumulate(double *num, double *den, const float *volts,
                 const float *coupling, double weight, std::size_t n)
{
    activeKernelTable().chargeAccumulate(num, den, volts, coupling,
                                         weight, n);
}

void
equilibrium(double *eq, const double *num, const double *den,
            std::size_t n)
{
    activeKernelTable().equilibrium(eq, num, den, n);
}

void
senseDecide(std::uint8_t *dec, const double *eq, const float *sa,
            const double *noise, double half, std::size_t n)
{
    scalar::senseDecide(dec, eq, sa, noise, half, n);
}

void
driveRails(float *volts, const std::uint8_t *dec, float vdd,
           std::size_t n)
{
    activeKernelTable().driveRails(volts, dec, vdd, n);
}

void
settleToward(float *volts, const float *alpha, const double *veq,
             const float *off, std::size_t n)
{
    scalar::settleToward(volts, alpha, veq, off, n);
}

void
fracSettle(float *volts, const float *alpha, const float *coupling,
           const float *off, const double *noise, double weight,
           double base_num, double base_den, std::size_t n)
{
    scalar::fracSettle(volts, alpha, coupling, off, noise, weight,
                       base_num, base_den, n);
}

void
restoreTruncate(float *volts, double half, double r, std::size_t n)
{
    scalar::restoreTruncate(volts, half, r, n);
}

void
fillFromBits(float *volts, const std::uint64_t *words, bool invert,
             float vdd, std::size_t n)
{
    activeKernelTable().fillFromBits(volts, words, invert, vdd, n);
}

void
packDecisions(std::uint64_t *words, const std::uint8_t *dec,
              bool invert, std::size_t n)
{
    activeKernelTable().packDecisions(words, dec, invert, n);
}

} // namespace fracdram::sim::kernels
