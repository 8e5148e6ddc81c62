#include "host.hh"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace
{

/** CPU brand string from cpuid (no file reads), or "unknown". */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; i++) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : s.substr(first);
    }
#endif
    return "unknown";
}

std::string
cacheSize(int name)
{
    const long bytes = sysconf(name);
    if (bytes <= 0)
        return "unknown";
    char buf[32];
    if (bytes % (1024 * 1024) == 0)
        std::snprintf(buf, sizeof(buf), "%ldMiB", bytes / (1024 * 1024));
    else
        std::snprintf(buf, sizeof(buf), "%ldKiB", bytes / 1024);
    return buf;
}

} // namespace

HostStamp
hostStamp(const std::string &code, unsigned workers)
{
    HostStamp h;
#ifdef __OPTIMIZE__
    h.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    h.sanitized = true;
#endif
    // UBSan defines no macro; its flag shows in the recorded flags.
    if (std::strstr(PERFBENCH_FLAGS, "-fsanitize") != nullptr)
        h.sanitized = true;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "nproc=%u workers=%u cpu=\"%s\" l2=%s l3=%s "
                  "compiler=\"%s\" flags=\"%s\" build=%s code=%s",
                  std::thread::hardware_concurrency(), workers,
                  cpuModel().c_str(),
                  cacheSize(_SC_LEVEL2_CACHE_SIZE).c_str(),
                  cacheSize(_SC_LEVEL3_CACHE_SIZE).c_str(),
                  PERFBENCH_COMPILER, PERFBENCH_FLAGS,
                  PERFBENCH_BUILD_TYPE, code.c_str());
    h.line = buf;
    return h;
}

} // namespace perfbench
