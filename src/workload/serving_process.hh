/**
 * @file
 * Former names of the open-loop server, which is an InferenceProcess
 * whose ProcessConfig::arrival_rate is set. Only the benchmark harness
 * (perfbench/src/traced.cc) still includes this header and uses these
 * names; everything else uses workload/inference_process.hh.
 */

#ifndef JETSIM_WORKLOAD_SERVING_PROCESS_HH
#define JETSIM_WORKLOAD_SERVING_PROCESS_HH

#include "workload/inference_process.hh"

namespace jetsim::workload {

using ServingConfig = ProcessConfig;
using ServingProcess = InferenceProcess;

} // namespace jetsim::workload

#endif // JETSIM_WORKLOAD_SERVING_PROCESS_HH
