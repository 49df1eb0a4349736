#include "prof/chrome_trace.hh"

#include <cstdio>

#include "sim/json.hh"

namespace jetsim::prof {

ChromeTraceExporter::ChromeTraceExporter(gpu::GpuEngine &engine)
    : engine_(engine)
{
}

ChromeTraceExporter::~ChromeTraceExporter()
{
    if (attached_)
        detach();
}

void
ChromeTraceExporter::attach()
{
    if (attached_)
        return;
    attached_ = true;
    engine_.setTraceHook([this](const gpu::KernelRecord &rec) {
        NameId id = rec.desc->name_id;
        if (id == kInvalidNameId)
            id = internName(rec.desc->name); // hand-built descriptor
        events_.push_back(Event{id, rec.channel, rec.start, rec.end,
                                rec.desc->prec, rec.desc->tc});
    });
}

void
ChromeTraceExporter::detach()
{
    if (!attached_)
        return;
    attached_ = false;
    engine_.setTraceHook(nullptr);
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
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string doc = json();
    const bool ok =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    return ok;
}

} // namespace jetsim::prof
