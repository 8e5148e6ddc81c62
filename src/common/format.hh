/**
 * @file
 * printf-style appending to a std::string that grows to fit the
 * result, shared by every string-building path (cache keys, JSON
 * documents, report lines). No fixed buffer: a long field such as a
 * churn schedule is never silently truncated.
 */

#ifndef CDCS_COMMON_FORMAT_HH
#define CDCS_COMMON_FORMAT_HH

#include <cstdarg>
#include <string>

namespace cdcs
{

/** Append the vprintf-style rendering of `fmt` with `args` to `out`. */
void appendV(std::string &out, const char *fmt, va_list args);

/** Append the printf-style rendering of `fmt` to `out`. */
void appendF(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace cdcs

#endif // CDCS_COMMON_FORMAT_HH
