#include "soc/precision.hh"

namespace jetsim::soc {

const char *
name(Precision p)
{
    switch (p) {
      case Precision::Int8: return "int8";
      case Precision::Fp16: return "fp16";
      case Precision::Tf32: return "tf32";
      case Precision::Fp32: return "fp32";
    }
    return "?";
}

unsigned
storageBytes(Precision p)
{
    switch (p) {
      case Precision::Int8: return 1;
      case Precision::Fp16: return 2;
      case Precision::Tf32: return 4;
      case Precision::Fp32: return 4;
    }
    return 4;
}

} // namespace jetsim::soc
