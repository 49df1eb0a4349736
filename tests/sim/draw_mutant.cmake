# Writes a copy of src/sim/rng.hh (IN) to OUT whose draw bracket has
# zero width: the table-evaluated value alone then decides each Tick,
# and the libm value lies outside its one-point bracket on most draws.
# Run with cmake -P.
file(READ ${IN} text)
set(bracket "inline constexpr double kDrawBracket = 1e-9;")
string(FIND "${text}" "${bracket}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "kDrawBracket's definition not found in ${IN}: "
                        "update tests/sim/draw_mutant.cmake")
endif()
string(REPLACE "${bracket}" "inline constexpr double kDrawBracket = 0.0;"
       text "${text}")
file(WRITE ${OUT} "${text}")
