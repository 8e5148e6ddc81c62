/**
 * @file
 * Host stamp printed with every result: worker count, CPU model,
 * cache sizes, compiler, flags, build type and code version, so
 * numbers from different hosts or builds are never compared unawares.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <string>

namespace perfbench
{

struct HostStamp
{
    std::string line;       ///< One-line description.
    bool optimized = false; ///< Compiled with optimization.
    bool sanitized = false; ///< Compiled with a sanitizer.
};

/** Describe this host and build; `code` is the `git describe` text. */
HostStamp hostStamp(const std::string &code, unsigned workers);

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
