#include "core/api.hpp"

int run() { return fixture::bench_only(); }
