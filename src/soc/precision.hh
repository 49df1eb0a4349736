/**
 * @file
 * Numeric weight-precision formats considered by the study.
 *
 * The paper compiles each model at int8, fp16, tf32 and fp32 and
 * sweeps them as the primary independent variable of Section 6.1.
 */

#ifndef JETSIM_SOC_PRECISION_HH
#define JETSIM_SOC_PRECISION_HH

#include <array>

namespace jetsim::soc {

/** Weight/compute precision of a compiled model. */
enum class Precision { Int8, Fp16, Tf32, Fp32 };

/** All precisions in the paper's sweep order (int8 → fp32). */
inline constexpr std::array<Precision, 4> kAllPrecisions = {
    Precision::Int8, Precision::Fp16, Precision::Tf32, Precision::Fp32,
};

/** Short lowercase name as used in the paper ("int8", "fp16", ...). */
const char *name(Precision p);

/** Every precision, for names read back (sim::enumFromName). */
constexpr const auto &
enumValues(Precision)
{
    return kAllPrecisions;
}

/**
 * Bytes used to *store* one weight element in this format. tf32 is a
 * compute format: weights are kept in 32-bit storage.
 */
unsigned storageBytes(Precision p);

} // namespace jetsim::soc

#endif // JETSIM_SOC_PRECISION_HH
