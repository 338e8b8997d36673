/**
 * @file
 * Compile-only check of the literal-named metric macros, built by
 * the ObsMacros.*LiteralName ctest entries (tests/obs/CMakeLists.txt)
 * with observability on and off.  A TF_COUNT call site caches its
 * name's id in a function-local static, so it must accept only a
 * string literal: with TF_CHECK_DYNAMIC_NAME defined this file must
 * fail to compile; without it, the literal spelling must compile.
 */

#include <string>

#include "obs/obs.hh"

void
recordOne(const std::string &dynamic_name)
{
#ifdef TF_CHECK_DYNAMIC_NAME
    TF_COUNT(dynamic_name, 1);
#else
    (void)dynamic_name;
    TF_COUNT("check/literal", 1);
    TF_GAUGE_ADD("check/gauge", 1.0);
    TF_GAUGE_MAX("check/peak", 1.0);
    TF_TIMER("check/timer");
#endif
}
