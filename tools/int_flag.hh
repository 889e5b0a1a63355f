/**
 * @file
 * Strict integer flag values for the command-line tools. The whole
 * argument must be a base-10 integer (no sign on unsigned types, no
 * leading blanks or '+', nothing after the digits) inside the flag's
 * range; anything else ends the tool with a message naming the flag
 * and exit status 1, before it does any work.
 */

#ifndef FRACDRAM_TOOLS_INT_FLAG_HH
#define FRACDRAM_TOOLS_INT_FLAG_HH

#include <charconv>
#include <limits>
#include <string>
#include <system_error>

#include "common/logging.hh"

namespace fracdram::tools
{

/** Parse @p text as the value of @p flag, in [lo, hi]. */
template <typename T>
T
parseIntFlag(const char *flag, const std::string &text,
             T lo = std::numeric_limits<T>::min(),
             T hi = std::numeric_limits<T>::max())
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    fatal_if(ec != std::errc{} || ptr != end || value < lo || value > hi,
             "bad value '%s' for %s (want an integer in [%s, %s])",
             text.c_str(), flag, std::to_string(lo).c_str(),
             std::to_string(hi).c_str());
    return value;
}

} // namespace fracdram::tools

#endif // FRACDRAM_TOOLS_INT_FLAG_HH
