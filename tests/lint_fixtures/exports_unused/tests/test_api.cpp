#include "core/api.hpp"

int probe() { return fixture::test_only() + fixture::allowed_probe(); }
