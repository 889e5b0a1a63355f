#include "common/simd/ops.hh"

namespace fracdram::simd
{

namespace
{

void
chanceMapScalar(std::uint8_t *dst, const std::uint64_t *raw, double p,
                std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] =
            static_cast<double>(raw[i] >> 11) * 0x1.0p-53 < p ? 1 : 0;
}

const RawOps kScalarOps = {chanceMapScalar};

} // namespace

#if FRACDRAM_HAVE_AVX2
const RawOps &avx2RawOps(); // ops_avx2.cc
#endif

const RawOps *
rawOpsForIsa(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return &kScalarOps;
    case Isa::Avx2:
#if FRACDRAM_HAVE_AVX2
        if (cpuFeatures().avx2)
            return &avx2RawOps();
#endif
        return nullptr;
    }
    return nullptr;
}

const RawOps &
rawOps()
{
    static const RawOps &ops = *rawOpsForIsa(activeIsa());
    return ops;
}

} // namespace fracdram::simd
