/**
 * @file
 * Entry points of the benchmark harness. Each prints one JSON object
 * on stdout and returns the process exit code.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.hh"
#include "puf/nist.hh"

namespace perfbench
{

/** `load`: closed-loop client against a daemon or router port. */
struct LoadOptions
{
    std::uint16_t port = 0;
    std::string mix = "entropy"; //!< entropy | puf
    int conns = 4;
    int window = 16;
    std::uint64_t seed = 1;
    double warmupSeconds = 1.0;
    double seconds = 5.0; //!< measured window; 0 = enrollment only
    bool trace = false;   //!< tag every request with a v2 request id
    std::vector<int> pids;    //!< processes whose CPU time to report
    bool corrupt = false;     //!< damage responses before checking
};

/** One puf-fleet key: a fleet device id and a challenge row. */
struct PufKey
{
    std::uint32_t device = 0;
    std::uint32_t row = 0;
};

/**
 * The puf-fleet key space of @p seed: 192 fleet ids spread over the
 * Frac-capable groups (A-I, M), two challenge rows each.
 */
std::vector<PufKey> pufKeys(std::uint64_t seed);

/** `study`: one QUAC-TRNG + NIST study iteration (see study.cc). */
struct StudyOptions
{
    std::uint64_t seed = 1;
    bool corrupt = false; //!< damage the streams before checking
};

/** `layers`: per-layer costs timed from outside through public APIs. */
struct LayersOptions
{
    std::string workload = "entropy-routed";
    std::uint64_t seed = 1;
    double scale = 1.0; //!< multiplies every repetition count
};

/**
 * The `--corrupt` flag of `load` and `study` damages the program's
 * outputs after they arrive and before they are checked; the
 * benchmark's self-test uses it to show the checks reject them.
 */
int runLoad(const LoadOptions &opt);
int runStudy(const StudyOptions &opt);
int runLayers(const LayersOptions &opt);

/**
 * The study's NIST subset (bench_trng's tests, pattern lengths sized
 * for a 16 Kibit stream).
 */
std::vector<fracdram::puf::nist::TestResult>
nistSubset(const fracdram::BitVector &s);

/** `info`: the resolved SIMD tier and SHA-NI use of this build. */
int runInfo();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
