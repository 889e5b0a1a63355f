#include "softmc/controller.hh"

#include <atomic>
#include <unordered_map>

#include "common/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace fracdram::softmc
{

namespace
{

/** Per-opcode command counters (see CommandKind). */
struct CommandCounters
{
    telemetry::CounterId act, pre, preAll, read, write, refresh, nop;
    telemetry::CounterId sequences, cycles, violations;
    telemetry::HistogramId seqLen;

    CommandCounters()
    {
        auto &m = telemetry::Metrics::instance();
        act = m.counter("softmc.cmd.act");
        pre = m.counter("softmc.cmd.pre");
        preAll = m.counter("softmc.cmd.pre_all");
        read = m.counter("softmc.cmd.read");
        write = m.counter("softmc.cmd.write");
        refresh = m.counter("softmc.cmd.refresh");
        nop = m.counter("softmc.cmd.nop");
        sequences = m.counter("softmc.sequences");
        cycles = m.counter("softmc.cycles");
        violations = m.counter("softmc.timing_violations");
        seqLen = m.histogram("softmc.seq.len_cycles");
    }
};

const CommandCounters &
commandCounters()
{
    static const CommandCounters c;
    return c;
}

/**
 * Telemetry handles of one accountant label: the
 * `softmc.cycles.<label>` counter and, once a trace is captured, the
 * label's interned span name. Cached per thread, so a sequence costs
 * one hash lookup instead of a string concatenation, a registry
 * lookup and (when capturing) the trace sink's mutex.
 */
struct LabelTelemetry
{
    telemetry::CounterId cycles;
    const char *traceName = nullptr;
};

LabelTelemetry &
labelTelemetry(const std::string &label)
{
    thread_local std::unordered_map<std::string, LabelTelemetry> cache;
    auto [it, inserted] = cache.try_emplace(label);
    if (inserted) {
        it->second.cycles = telemetry::Metrics::instance().counter(
            "softmc.cycles." + label);
    }
    return it->second;
}

const char *
commandName(CommandKind kind)
{
    switch (kind) {
      case CommandKind::Act: return "ACT";
      case CommandKind::Pre: return "PRE";
      case CommandKind::PreAll: return "PREA";
      case CommandKind::Read: return "READ";
      case CommandKind::Write: return "WRITE";
      case CommandKind::Refresh: return "REF";
      case CommandKind::Nop: return "NOP";
    }
    return "?";
}

/** Distinct trace lane per controller instance. */
std::atomic<std::uint32_t> nextLane{1};

} // namespace

void
CycleAccountant::add(const std::string &label, Cycles cycles)
{
    cycles_[label] += cycles;
    counts_[label] += 1;
}

Cycles
CycleAccountant::of(const std::string &label) const
{
    const auto it = cycles_.find(label);
    return it == cycles_.end() ? 0 : it->second;
}

std::size_t
CycleAccountant::countOf(const std::string &label) const
{
    const auto it = counts_.find(label);
    return it == counts_.end() ? 0 : it->second;
}

Cycles
CycleAccountant::total() const
{
    Cycles t = 0;
    for (const auto &[label, c] : cycles_)
        t += c;
    return t;
}

void
CycleAccountant::clear()
{
    cycles_.clear();
    counts_.clear();
}

MemoryController::MemoryController(sim::DramChip &chip, bool enforce_spec)
    : chip_(chip), spec_(TimingSpec::ddr3()), enforceSpec_(enforce_spec),
      telemetryLane_(nextLane.fetch_add(1, std::memory_order_relaxed))
{
}

MemoryController::ExecResult
MemoryController::execute(const CommandSequence &seq,
                          const std::string &label)
{
    if (enforceSpec_) {
        const auto violations =
            spec_.check(seq, chip_.dramParams().numBanks);
        if (!violations.empty()) {
            fatal("sequence '%s' violates JEDEC timing: @%llu %s "
                  "(+%zu more)",
                  label.c_str(),
                  static_cast<unsigned long long>(violations[0].cycle),
                  violations[0].what.c_str(), violations.size() - 1);
        }
    }

    const bool telem = telemetry::enabled();
    const bool capture = telem && telemetry::capturing();
    std::size_t tally[7] = {};
    if (telem) {
        const auto &tc = commandCounters();
        telemetry::count(tc.sequences);
        // Out-of-spec sequences are the platform's whole point; when
        // observing, document exactly how many constraints each one
        // deliberately violates (enforcing mode already fataled).
        if (!enforceSpec_) {
            const std::size_t violations = spec_.countViolations(
                seq, chip_.dramParams().numBanks);
            if (violations != 0) {
                telemetry::count(tc.violations, violations);
                telemetry::traceInstant("timing violation");
            }
        }
    }

    ExecResult result;
    for (const auto &tc : seq.commands()) {
        const Cycles cycle = clock_ + tc.cycle;
        const auto &cmd = tc.cmd;
        if (telem)
            ++tally[static_cast<std::size_t>(cmd.kind)];
        if (capture)
            telemetry::traceCommand(commandName(cmd.kind), cycle, 1,
                                    telemetryLane_);
        switch (cmd.kind) {
          case CommandKind::Act:
            chip_.act(cycle, cmd.bank, cmd.row);
            break;
          case CommandKind::Pre:
            chip_.pre(cycle, cmd.bank);
            break;
          case CommandKind::PreAll:
            chip_.preAll(cycle);
            break;
          case CommandKind::Read:
            result.reads.push_back(chip_.read(cycle, cmd.bank));
            break;
          case CommandKind::Write:
            chip_.write(cycle, cmd.bank, seq.payload(cmd.payload));
            break;
          case CommandKind::Refresh:
            chip_.refresh(cycle);
            break;
          case CommandKind::Nop:
            break;
        }
    }

    const Cycles len = seq.lengthCycles();
    // The bus goes quiet after the sequence: give the module enough
    // cycles for any pending activation or close to resolve.
    const Cycles margin = chip_.dramParams().saEnableCycles +
                          chip_.dramParams().glitchAbortCycles + 2;
    chip_.flushAll(clock_ + len + margin);
    if (telem) {
        const auto &tc = commandCounters();
        const telemetry::CounterId by_kind[7] = {
            tc.act, tc.pre, tc.preAll, tc.read,
            tc.write, tc.refresh, tc.nop};
        for (std::size_t k = 0; k < 7; ++k)
            if (tally[k] != 0)
                telemetry::count(by_kind[k], tally[k]);
        telemetry::count(tc.cycles, len);
        telemetry::observe(tc.seqLen, len);
        // The accountant's labels double as metric names, so the
        // per-operation cycle budget shows up in every run report.
        LabelTelemetry &lt = labelTelemetry(label);
        telemetry::count(lt.cycles, len);
        if (capture) {
            if (lt.traceName == nullptr)
                lt.traceName = telemetry::internName(label);
            telemetry::traceCommand(lt.traceName, clock_, len,
                                    telemetryLane_);
        }
    }
    clock_ += len + margin;
    chip_.advanceTime(static_cast<Seconds>(len + margin) * memCycleNs *
                      1e-9);
    accountant_.add(label, len);
    result.cycles = len;
    return result;
}

namespace
{

void
idleUntil(CommandSequence &seq, Cycles target)
{
    panic_if(target < seq.cursor(),
             "idleUntil target %llu before cursor %llu",
             static_cast<unsigned long long>(target),
             static_cast<unsigned long long>(seq.cursor()));
    seq.idle(target - seq.cursor());
}

} // namespace

Cycles
MemoryController::readRowCycles() const
{
    // One x64 BL8 burst moves 512 bits.
    const std::uint32_t cols = chip_.dramParams().colsPerRow;
    const Cycles bursts = (cols + 511) / 512;
    return bursts * cyclesPerBurst_;
}

void
MemoryController::writeRow(BankAddr bank, RowAddr row,
                           const BitVector &bits)
{
    CommandSequence seq;
    seq.act(bank, row);
    idleUntil(seq, spec_.tRcd);
    seq.write(bank, bits);
    const Cycles write_done = seq.cursor() + readRowCycles();
    const Cycles pre_at =
        std::max(write_done + spec_.tWr, spec_.tRas);
    idleUntil(seq, pre_at);
    seq.pre(bank);
    idleUntil(seq, pre_at + spec_.tRp);
    execute(seq, "writeRow");
}

BitVector
MemoryController::readRow(BankAddr bank, RowAddr row)
{
    CommandSequence seq;
    seq.act(bank, row);
    idleUntil(seq, spec_.tRcd);
    seq.read(bank);
    const Cycles read_done = seq.cursor() + readRowCycles();
    const Cycles pre_at =
        std::max(read_done + spec_.tRtp, spec_.tRas);
    idleUntil(seq, pre_at);
    seq.pre(bank);
    idleUntil(seq, pre_at + spec_.tRp);
    auto result = execute(seq, "readRow");
    panic_if(result.reads.size() != 1, "readRow expected one read");
    return std::move(result.reads[0]);
}

BitVector
MemoryController::toVoltageDomain(BankAddr bank, RowAddr row,
                                  const BitVector &logic) const
{
    if (!chip_.rowIsAnti(bank, row))
        return logic;
    BitVector mask(logic.size(), true);
    return logic ^ mask;
}

void
MemoryController::writeRowVoltage(BankAddr bank, RowAddr row,
                                  const BitVector &high_bits)
{
    // Anti-cell rows get complemented logic data so every cell holds
    // the requested physical level (paper Sec. II-C).
    writeRow(bank, row, toVoltageDomain(bank, row, high_bits));
}

BitVector
MemoryController::readRowVoltage(BankAddr bank, RowAddr row)
{
    return toVoltageDomain(bank, row, readRow(bank, row));
}

void
MemoryController::fillRowVoltage(BankAddr bank, RowAddr row, bool high)
{
    writeRowVoltage(
        bank, row, BitVector(chip_.dramParams().colsPerRow, high));
}

void
MemoryController::refreshAll()
{
    CommandSequence seq;
    seq.preAll();
    idleUntil(seq, spec_.tRp);
    seq.refresh();
    idleUntil(seq, spec_.tRp + spec_.tRfc);
    execute(seq, "refresh");
}

void
MemoryController::prechargeAllBanks()
{
    CommandSequence seq;
    // Leave tRAS room in case a bank was (re)opened recently.
    seq.idle(spec_.tRas);
    seq.preAll();
    idleUntil(seq, spec_.tRas + 1 + spec_.tRp);
    execute(seq, "prechargeAll");
}

void
MemoryController::waitSeconds(Seconds s)
{
    chip_.advanceTime(s);
}

} // namespace fracdram::softmc
