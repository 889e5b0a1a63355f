/**
 * @file
 * perfbench_harness - the compiled half of the repository benchmark
 * (perfbench/run.py drives it).
 *
 *   perfbench_harness load   --port N [--mix entropy|puf] [--conns N]
 *                            [--window N] [--seed N] [--warmup S]
 *                            [--seconds S] [--trace 0|1] [--pids a,b,...]
 *   perfbench_harness study  [--seed N]
 *   perfbench_harness layers [--workload NAME] [--seed N] [--scale X]
 *   perfbench_harness info
 *
 * `load` and `study` also take --corrupt, which damages the outputs
 * before they are checked (the benchmark's self-test).
 *
 * Each prints one JSON object on stdout; the exit code is 0 only when
 * every output check passed.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "harness.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "perfbench_harness: %s\n", why);
    std::exit(2);
}

std::vector<int>
parsePids(const std::string &s)
{
    std::vector<int> pids;
    std::size_t pos = 0;
    while (pos < s.size()) {
        const std::size_t comma = s.find(',', pos);
        pids.push_back(std::atoi(s.substr(pos, comma - pos).c_str()));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return pids;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("expected a subcommand: load, study, layers or info");
    fracdram::setVerbose(false);
    const std::string cmd = argv[1];
    LoadOptions load;
    StudyOptions study;
    LayersOptions layers;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--port")
            load.port = static_cast<std::uint16_t>(std::atoi(next().c_str()));
        else if (arg == "--mix")
            load.mix = next();
        else if (arg == "--conns")
            load.conns = std::atoi(next().c_str());
        else if (arg == "--window")
            load.window = std::atoi(next().c_str());
        else if (arg == "--seed")
            load.seed = study.seed = layers.seed =
                std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--warmup")
            load.warmupSeconds = std::atof(next().c_str());
        else if (arg == "--seconds")
            load.seconds = std::atof(next().c_str());
        else if (arg == "--trace")
            load.trace = std::atoi(next().c_str()) != 0;
        else if (arg == "--pids")
            load.pids = parsePids(next());
        else if (arg == "--corrupt")
            load.corrupt = study.corrupt = true;
        else if (arg == "--workload")
            layers.workload = next();
        else if (arg == "--scale")
            layers.scale = std::atof(next().c_str());
        else
            usage(("unknown option " + arg).c_str());
    }
    if (cmd == "load")
        return runLoad(load);
    if (cmd == "study")
        return runStudy(study);
    if (cmd == "layers")
        return runLayers(layers);
    if (cmd == "info")
        return runInfo();
    usage(("unknown subcommand " + cmd).c_str());
}
