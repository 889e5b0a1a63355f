#include "puf/puf.hh"

#include "common/logging.hh"
#include "core/frac_op.hh"
#include "core/rowclone.hh"
#include "telemetry/metrics.hh"

namespace fracdram::puf
{

namespace
{

/** FracPUF pipeline counters. */
struct PufCounters
{
    telemetry::CounterId evaluations;
    telemetry::HistogramId evaluateNs;

    PufCounters()
    {
        auto &m = telemetry::Metrics::instance();
        evaluations = m.counter("puf.evaluations");
        evaluateNs = m.histogram("puf.evaluate_ns");
    }
};

const PufCounters &
pufCounters()
{
    static const PufCounters c;
    return c;
}

} // namespace

FracPuf::FracPuf(softmc::MemoryController &mc, int num_fracs)
    : mc_(mc), numFracs_(num_fracs)
{
    panic_if(num_fracs < 1, "PUF needs at least one Frac operation");
    fatal_if(!mc.chip().profile().supportsFrac,
             "group %s cannot Frac; no PUF on this module",
             sim::groupName(mc.chip().group()).c_str());
}

RowAddr
FracPuf::reservedOnesRow() const
{
    return mc_.chip().dramParams().rowsPerBank() - 1;
}

void
FracPuf::setUseInDramInit(bool use)
{
    useInDramInit_ = use;
    if (use) {
        onesRowReady_.assign(mc_.chip().dramParams().numBanks, false);
    }
}

void
FracPuf::fillOnes(const Challenge &challenge)
{
    // Either one in-DRAM row copy from a reserved all-ones row (the
    // paper's 88-cycle preparation) or a plain bus write.
    if (useInDramInit_) {
        const RowAddr src = reservedOnesRow();
        panic_if(challenge.row == src,
                 "challenge row collides with the reserved ones row");
        if (!onesRowReady_.at(challenge.bank)) {
            mc_.fillRowVoltage(challenge.bank, src, true);
            onesRowReady_[challenge.bank] = true;
        }
        core::rowCopy(mc_, challenge.bank, src, challenge.row);
    } else {
        mc_.fillRowVoltage(challenge.bank, challenge.row, true);
    }
}

BitVector
FracPuf::evaluate(const Challenge &challenge)
{
    const auto &pc = pufCounters();
    telemetry::count(pc.evaluations);
    const telemetry::ScopedTimer timer(pc.evaluateNs);
    // Initialize the segment to all ones, then drive the cells toward
    // V_dd/2 and read out.
    fillOnes(challenge);
    // Only the readout observes the Frac voltages, so the bank may
    // carry them as intervals and compute noise where it decides a
    // bit (sim::Bank::setDeferFrac).
    sim::Bank &bank = mc_.chip().bank(challenge.bank);
    bank.setDeferFrac(true);
    core::frac(mc_, challenge.bank, challenge.row, numFracs_);
    BitVector response =
        mc_.readRowVoltage(challenge.bank, challenge.row);
    bank.setDeferFrac(false);
    if (discardAfterEvaluate_)
        bank.discardRow(challenge.row);
    return response;
}

void
FracPuf::replay(const Challenge &challenge, const BitVector &bits)
{
    panic_if(bits.size() != mc_.chip().dramParams().colsPerRow,
             "replayed response has %zu bits, expected %u",
             bits.size(), mc_.chip().dramParams().colsPerRow);
    fillOnes(challenge);
    // toVoltageDomain is its own inverse: this is the logic row the
    // live sense leaves in the buffer.
    const BitVector rails =
        mc_.toVoltageDomain(challenge.bank, challenge.row, bits);
    sim::Bank &bank = mc_.chip().bank(challenge.bank);
    bank.setStreamOnly(&rails);
    core::frac(mc_, challenge.bank, challenge.row, numFracs_);
    (void)mc_.readRow(challenge.bank, challenge.row);
    bank.setStreamOnly(nullptr);
    if (discardAfterEvaluate_)
        bank.discardRow(challenge.row);
}

std::vector<BitVector>
FracPuf::evaluateAll(const std::vector<Challenge> &challenges)
{
    std::vector<BitVector> out;
    out.reserve(challenges.size());
    for (const auto &c : challenges)
        out.push_back(evaluate(c));
    return out;
}

std::vector<Challenge>
FracPuf::makeChallenges(std::size_t count) const
{
    const auto &params = mc_.chip().dramParams();
    // The last row of each bank is reserved for the in-DRAM all-ones
    // source (setUseInDramInit).
    const RowAddr usable_rows = params.rowsPerBank() - 1;
    panic_if(count > std::size_t{params.numBanks} * usable_rows,
             "more challenges than rows");
    std::vector<Challenge> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Challenge c;
        c.bank = static_cast<BankAddr>(i % params.numBanks);
        c.row = static_cast<RowAddr>((i / params.numBanks) %
                                     usable_rows);
        out.push_back(c);
    }
    return out;
}

Cycles
FracPuf::preparationCycles() const
{
    return core::rowCopyCycles +
           static_cast<Cycles>(numFracs_) * core::fracOpCycles;
}

Cycles
FracPuf::evaluationCycles() const
{
    return preparationCycles() + mc_.readRowCycles();
}

} // namespace fracdram::puf
