#include "prof/chrome_trace.hh"

#include "sim/json.hh"

namespace jetsim::prof {

ChromeTraceExporter::ChromeTraceExporter(gpu::GpuEngine &engine)
    : engine_(engine)
{
}

void
ChromeTraceExporter::attach()
{
    if (sub_)
        return;
    sub_ = engine_.subscribe([this](const gpu::KernelRecord &rec) {
        NameId id = rec.desc->name_id;
        if (id == kInvalidNameId)
            id = internName(rec.desc->name); // hand-built descriptor
        events_.push_back(Event{id, rec.channel, rec.start, rec.end,
                                rec.desc->prec, rec.desc->tc});
    });
}

std::string
ChromeTraceExporter::json() const
{
    std::string out = "{\"traceEvents\":[";
    for (const auto &e : events_) {
        if (out.back() != '[')
            out += ',';
        out += "{\"name\":";
        sim::putJsonString(out, nameOf(e.name_id));
        out += ",\"ph\":\"X\",\"ts\":";
        sim::putJsonNumber(out, sim::toUsec(e.start));
        out += ",\"dur\":";
        sim::putJsonNumber(out, sim::toUsec(e.end - e.start));
        out += ",\"pid\":0,\"tid\":" + std::to_string(e.channel) +
               ",\"args\":{\"precision\":\"" + soc::name(e.prec) +
               "\",\"tensor_cores\":" + (e.tc ? "true" : "false") +
               "}}";
    }
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
}

bool
ChromeTraceExporter::writeFile(const std::string &path) const
{
    return sim::writeFileAtomic(path, json());
}

} // namespace jetsim::prof
