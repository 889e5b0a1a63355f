#include "softmc/timing.hh"

#include <optional>

#include "common/logging.hh"

namespace fracdram::softmc
{

TimingSpec
TimingSpec::ddr3()
{
    return TimingSpec{};
}

namespace
{

struct BankTrack
{
    std::optional<Cycles> lastAct;
    std::optional<Cycles> lastPre;
    std::optional<Cycles> lastRead;
    std::optional<Cycles> lastWrite;
    bool open = false;
};

/**
 * Walk @p seq against @p spec, calling report(cycle, describe) once
 * per violation in cycle order. describe() formats the message, so a
 * caller that only counts never pays for it.
 */
template <typename Report>
void
walk(const TimingSpec &spec, const CommandSequence &seq,
     std::uint32_t num_banks, Report &&report)
{
    std::vector<BankTrack> banks(num_banks);
    std::optional<Cycles> lastActAnyBank;
    std::optional<Cycles> lastRefresh;

    auto violate = [&report](Cycles cycle, const char *what) {
        report(cycle, [what] { return std::string(what); });
    };

    auto bad_bank = [&report](Cycles cycle, const char *cmd,
                              BankAddr bank) {
        report(cycle, [cmd, bank] {
            return strprintf("%s: bad bank %u", cmd, bank);
        });
    };

    auto require_gap = [&report](Cycles cycle,
                                 std::optional<Cycles> since, Cycles min,
                                 const char *what) {
        if (since && cycle < *since + min) {
            report(cycle, [=] {
                return strprintf(
                    "%s: gap %llu < %llu cycles", what,
                    static_cast<unsigned long long>(cycle - *since),
                    static_cast<unsigned long long>(min));
            });
        }
    };

    for (const auto &tc : seq.commands()) {
        const Cycles cycle = tc.cycle;
        const auto &cmd = tc.cmd;

        if (cmd.kind != CommandKind::Refresh &&
            cmd.kind != CommandKind::Nop) {
            require_gap(cycle, lastRefresh, spec.tRfc, "tRFC");
        }

        switch (cmd.kind) {
          case CommandKind::Act: {
            if (cmd.bank >= num_banks) {
                bad_bank(cycle, "ACT", cmd.bank);
                break;
            }
            auto &bt = banks[cmd.bank];
            if (bt.open)
                violate(cycle, "ACT on an open bank (missing PRE)");
            require_gap(cycle, bt.lastAct, spec.tRc, "tRC");
            require_gap(cycle, bt.lastPre, spec.tRp, "tRP");
            if (lastActAnyBank && (!bt.lastAct ||
                                   *lastActAnyBank != *bt.lastAct)) {
                require_gap(cycle, lastActAnyBank, spec.tRrd, "tRRD");
            }
            bt.lastAct = cycle;
            bt.open = true;
            lastActAnyBank = cycle;
            break;
          }
          case CommandKind::Pre:
          case CommandKind::PreAll: {
            const BankAddr lo =
                cmd.kind == CommandKind::Pre ? cmd.bank : 0;
            const BankAddr hi = cmd.kind == CommandKind::Pre
                                    ? cmd.bank + 1
                                    : num_banks;
            if (lo >= num_banks) {
                bad_bank(cycle, "PRE", cmd.bank);
                break;
            }
            for (BankAddr b = lo; b < hi; ++b) {
                auto &bt = banks[b];
                if (!bt.open)
                    continue;
                require_gap(cycle, bt.lastAct, spec.tRas, "tRAS");
                require_gap(cycle, bt.lastRead, spec.tRtp, "tRTP");
                require_gap(cycle, bt.lastWrite, spec.tWr, "tWR");
                bt.lastPre = cycle;
                bt.open = false;
            }
            break;
          }
          case CommandKind::Read: {
            if (cmd.bank >= num_banks) {
                bad_bank(cycle, "RD", cmd.bank);
                break;
            }
            auto &bt = banks[cmd.bank];
            if (!bt.open)
                violate(cycle, "RD on a closed bank");
            require_gap(cycle, bt.lastAct, spec.tRcd, "tRCD");
            bt.lastRead = cycle;
            break;
          }
          case CommandKind::Write: {
            if (cmd.bank >= num_banks) {
                bad_bank(cycle, "WR", cmd.bank);
                break;
            }
            auto &bt = banks[cmd.bank];
            if (!bt.open)
                violate(cycle, "WR on a closed bank");
            require_gap(cycle, bt.lastAct, spec.tRcd, "tRCD");
            bt.lastWrite = cycle;
            break;
          }
          case CommandKind::Refresh: {
            for (BankAddr b = 0; b < num_banks; ++b) {
                if (banks[b].open) {
                    report(cycle, [b] {
                        return strprintf("REFRESH with bank %u open", b);
                    });
                }
            }
            lastRefresh = cycle;
            break;
          }
          case CommandKind::Nop:
            break;
        }
    }
}

} // namespace

std::vector<TimingViolation>
TimingSpec::check(const CommandSequence &seq,
                  std::uint32_t num_banks) const
{
    std::vector<TimingViolation> out;
    walk(*this, seq, num_banks, [&out](Cycles cycle, auto &&describe) {
        out.push_back({cycle, describe()});
    });
    return out;
}

std::size_t
TimingSpec::countViolations(const CommandSequence &seq,
                            std::uint32_t num_banks) const
{
    std::size_t n = 0;
    walk(*this, seq, num_banks, [&n](Cycles, auto &&) { ++n; });
    return n;
}

} // namespace fracdram::softmc
