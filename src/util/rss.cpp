#include "util/rss.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include <cstdint>

namespace kc {

std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::size_t>(ru.ru_maxrss);
#else
  // Linux/BSD report kilobytes.
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024u;
#endif
#else
  return 0;
#endif
}

std::size_t memory_budget_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rlimit lim {};
  if (getrlimit(RLIMIT_AS, &lim) == 0 && lim.rlim_cur != RLIM_INFINITY)
    return static_cast<std::size_t>(lim.rlim_cur);
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page = sysconf(_SC_PAGESIZE);
  if (pages > 0 && page > 0)
    return static_cast<std::size_t>(pages) * static_cast<std::size_t>(page);
#endif
  return SIZE_MAX;
}

}  // namespace kc
