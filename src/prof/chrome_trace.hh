/**
 * @file
 * Chrome-trace (chrome://tracing / Perfetto) export of GPU kernel
 * timelines — the Nsight-Systems-timeline analogue of our tracer.
 *
 * Each executed kernel becomes a complete ("X") event; each process
 * channel maps to a trace thread, so concurrent workloads render as
 * parallel lanes exactly like an nsys GPU row.
 */

#ifndef JETSIM_PROF_CHROME_TRACE_HH
#define JETSIM_PROF_CHROME_TRACE_HH

#include <string>
#include <vector>

#include "gpu/engine.hh"
#include "prof/name_id.hh"

namespace jetsim::prof {

/**
 * Collects kernel records into an in-memory Chrome trace.
 *
 * attach() subscribes to the GPU engine's kernel records, beside any
 * other subscriber (an NsightTracer, a KernelSummary, ...).
 */
class ChromeTraceExporter
{
  public:
    explicit ChromeTraceExporter(gpu::GpuEngine &engine);

    /** Immovable: the subscription's callback captures `this`. */
    ChromeTraceExporter(const ChromeTraceExporter &) = delete;
    ChromeTraceExporter &operator=(const ChromeTraceExporter &) = delete;

    /** Start capturing kernel events. */
    void attach();

    /** Stop capturing (keeps collected events). */
    void detach() { sub_.reset(); }

    /** Drop collected events. */
    void clear() { events_.clear(); }

    std::size_t eventCount() const { return events_.size(); }

    /** Render the Chrome trace JSON document. */
    std::string json() const;

    /**
     * Write json() to @p path.
     * @return false when the file cannot be written.
     */
    bool writeFile(const std::string &path) const;

  private:
    struct Event
    {
        /** Interned kernel name; resolved to a string in json(). */
        NameId name_id;
        int channel;
        sim::Tick start;
        sim::Tick end;
        soc::Precision prec;
        bool tc;
    };

    gpu::GpuEngine &engine_;
    gpu::GpuEngine::Subscription sub_;
    std::vector<Event> events_;
};

} // namespace jetsim::prof

#endif // JETSIM_PROF_CHROME_TRACE_HH
