#include "common/simd/simd.hh"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/logging.hh"
#include "telemetry/metrics.hh"

#ifndef FRACDRAM_HAVE_AVX2
#define FRACDRAM_HAVE_AVX2 0
#endif
#ifndef FRACDRAM_HAVE_SHANI
#define FRACDRAM_HAVE_SHANI 0
#endif

namespace fracdram::simd
{

namespace
{

#if defined(__x86_64__) || defined(__i386__)

std::uint64_t
readXcr0()
{
    std::uint32_t eax, edx;
    __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
    return (std::uint64_t{edx} << 32) | eax;
}

CpuFeatures
detect()
{
    CpuFeatures f;
    unsigned eax, ebx, ecx, edx;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return f;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    const bool avx = (ecx & (1u << 28)) != 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
        return f;
    f.shaNi = (ebx & (1u << 29)) != 0;
    if (!osxsave || !avx)
        return f;
    const std::uint64_t xcr0 = readXcr0();
    const bool ymm_os = (xcr0 & 0x6) == 0x6; // XMM + YMM state
    const bool avx2 = (ebx & (1u << 5)) != 0;
    const bool bmi2 = (ebx & (1u << 8)) != 0;
    // The AVX2 kernels use BMI2 (pdep) for bit<->lane conversion, so
    // the tier requires both; every AVX2 part since Haswell has BMI2.
    f.avx2 = ymm_os && avx2 && bmi2;
    return f;
}

#else

CpuFeatures
detect()
{
    return CpuFeatures{};
}

#endif

/** Highest tier the build actually compiled. */
constexpr Isa
builtIsa()
{
#if FRACDRAM_HAVE_AVX2
    return Isa::Avx2;
#else
    return Isa::Scalar;
#endif
}

std::string
describeRaw(Isa isa)
{
    const CpuFeatures &f = cpuFeatures();
    std::string hw;
    if (f.avx2)
        hw += " avx2";
    if (f.shaNi)
        hw += " sha_ni";
    if (hw.empty())
        hw = " baseline";
    std::string out = isaName(isa);
    out += " (hw:";
    out += hw;
    out += "; sha: ";
    const bool sha =
        f.shaNi && FRACDRAM_HAVE_SHANI != 0 && isa != Isa::Scalar;
    out += sha ? "sha_ni" : "scalar";
    out += ")";
    return out;
}

Isa
resolve()
{
    const CpuFeatures &f = cpuFeatures();
    Isa best = Isa::Scalar;
    if (f.avx2 && builtIsa() >= Isa::Avx2)
        best = Isa::Avx2;

    Isa pick = best;
    const char *env = std::getenv("FRACDRAM_ISA");
    if (env != nullptr && env[0] != '\0') {
        Isa asked;
        if (!parseIsa(env, asked)) {
            warn("FRACDRAM_ISA='%s' is not scalar|avx2; using %s", env,
                 isaName(best));
        } else if (asked > best) {
            warn("FRACDRAM_ISA=%s exceeds what this machine/build "
                 "supports; clamping to %s",
                 env, isaName(best));
        } else {
            pick = asked;
        }
    }
    debug_log("simd: resolved %s", describeRaw(pick).c_str());

    // Gauges, so /metrics archives record which path actually ran.
    auto &m = telemetry::Metrics::instance();
    telemetry::setGauge(m.gauge("simd.isa_level"),
                        static_cast<std::int64_t>(pick));
    const bool sha = f.shaNi && FRACDRAM_HAVE_SHANI != 0 &&
                     pick != Isa::Scalar;
    telemetry::setGauge(m.gauge("simd.sha_ni"), sha ? 1 : 0);
    return pick;
}

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures f = detect();
    return f;
}

Isa
activeIsa()
{
    static const Isa isa = resolve();
    return isa;
}

bool
shaNiActive()
{
#if FRACDRAM_HAVE_SHANI
    return cpuFeatures().shaNi && activeIsa() != Isa::Scalar;
#else
    return false;
#endif
}

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Avx2:
        return "avx2";
    }
    return "scalar";
}

bool
parseIsa(const char *name, Isa &out)
{
    if (std::strcmp(name, "scalar") == 0)
        out = Isa::Scalar;
    else if (std::strcmp(name, "avx2") == 0)
        out = Isa::Avx2;
    else
        return false;
    return true;
}

std::string
describeIsa()
{
    return describeRaw(activeIsa());
}

} // namespace fracdram::simd
