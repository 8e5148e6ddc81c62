#include "common/format.hh"

#include <cstdio>

namespace cdcs
{

void
appendV(std::string &out, const char *fmt, va_list args)
{
    // Most pieces fit the stack buffer; longer ones are rendered a
    // second time straight into the grown string.
    char buf[256];
    va_list again;
    va_copy(again, args);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
    if (n > 0 && n < static_cast<int>(sizeof(buf))) {
        out.append(buf, static_cast<std::size_t>(n));
    } else if (n > 0) {
        const std::size_t at = out.size();
        out.resize(at + static_cast<std::size_t>(n) + 1);
        std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1,
                       fmt, again);
        out.resize(at + static_cast<std::size_t>(n));
    }
    va_end(again);
}

void
appendF(std::string &out, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    appendV(out, fmt, args);
    va_end(args);
}

} // namespace cdcs
