# Writes a copy of src/sim/event_queue.hh (IN) to OUT whose
# heapReplaceTop skips its sift: its loop stops at once, so the
# re-armed root keeps its new, larger key at the top of the heap.
# Run with cmake -P.
file(READ ${IN} text)
set(sift "        if (!(k[c] < key))")
string(FIND "${text}" "${sift}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "heapReplaceTop's sift test not found in ${IN}: "
                        "update tests/sim/hold_mutant.cmake")
endif()
string(REPLACE "${sift}" "        if (true)" text "${text}")
file(WRITE ${OUT} "${text}")
