#include "engine/simd.h"

#include "common/logging.h"

namespace pap {

namespace {

SimdLevel
probeSimdLevel()
{
#if defined(__x86_64__) && defined(__GNUC__)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vpopcntdq"))
        return SimdLevel::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return SimdLevel::Avx2;
#endif
    return SimdLevel::Scalar;
}

} // namespace

SimdLevel
currentSimdLevel()
{
    static const SimdLevel level = probeSimdLevel();
    return level;
}

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return "scalar";
    case SimdLevel::Avx2:
        return "avx2";
    case SimdLevel::Avx512:
        return "avx512";
    }
    PAP_PANIC("invalid SimdLevel ", static_cast<int>(level));
}

} // namespace pap
