/**
 * @file
 * Host vector-width probe. The engine itself runs no vector kernels;
 * the probe survives because the benchmark harness prints the host's
 * SIMD level next to its results.
 */

#ifndef PAP_ENG_SIMD_H
#define PAP_ENG_SIMD_H

#include <cstdint>

namespace pap {

/** Widest vector extension the host can execute. */
enum class SimdLevel : std::uint8_t
{
    /** No AVX2 (or not an x86-64 host). */
    Scalar = 0,
    /** 256-bit AVX2. */
    Avx2 = 1,
    /** 512-bit AVX-512 (F + VPOPCNTDQ). */
    Avx512 = 2,
};

/**
 * Best level this host can execute (CPUID probe, cached). The
 * benchmark harness names this function.
 */
SimdLevel currentSimdLevel();

/**
 * Stable name of @p level ("scalar", "avx2", "avx512"). The benchmark
 * harness names this function.
 */
const char *simdLevelName(SimdLevel level);

} // namespace pap

#endif // PAP_ENG_SIMD_H
