#include "graph/network.hh"

#include <algorithm>
#include <ranges>
#include <type_traits>

#include "core/hot_annotations.hh"

#include "sim/logging.hh"

namespace jetsim::graph {

namespace {

/**
 * Field-list visitor folding a layer into a check::Digest: integers,
 * bools and enums by value, strings by content, a vector as its
 * length and then its elements, a shape through its own field list.
 */
struct FieldDigest
{
    check::Digest &d;

    template <class T>
    void
    operator()(const char *key, const T &x)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            d.add(x);
        } else if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
            d.add(static_cast<std::int64_t>(x));
        } else if constexpr (std::ranges::range<T>) {
            d.add(static_cast<std::uint64_t>(x.size()));
            for (const auto &e : x)
                (*this)(key, e);
        } else {
            visitFields(*this, x);
        }
    }
};

} // namespace

const char *
opName(OpKind k)
{
    switch (k) {
      case OpKind::Input: return "Input";
      case OpKind::Conv: return "Conv";
      case OpKind::BatchNorm: return "BatchNorm";
      case OpKind::Relu: return "Relu";
      case OpKind::Silu: return "Silu";
      case OpKind::Sigmoid: return "Sigmoid";
      case OpKind::Add: return "Add";
      case OpKind::MaxPool: return "MaxPool";
      case OpKind::AvgPool: return "AvgPool";
      case OpKind::GlobalAvgPool: return "GlobalAvgPool";
      case OpKind::Linear: return "Linear";
      case OpKind::Upsample: return "Upsample";
      case OpKind::Concat: return "Concat";
      case OpKind::Slice: return "Slice";
    }
    return "?";
}

std::int64_t
Layer::params() const
{
    switch (kind) {
      case OpKind::Conv: {
        std::int64_t p = static_cast<std::int64_t>(out_channels) *
                         (in.c / groups) * kernel * kernel;
        if (bias)
            p += out_channels;
        return p;
      }
      case OpKind::BatchNorm:
        // gamma, beta, running mean, running var.
        return 4LL * in.c;
      case OpKind::Linear: {
        std::int64_t p = in_features * out_features;
        if (bias)
            p += out_features;
        return p;
      }
      default:
        return 0;
    }
}

double
Layer::macs() const
{
    switch (kind) {
      case OpKind::Conv:
        return static_cast<double>(out.elems()) * (in.c / groups) *
               kernel * kernel;
      case OpKind::Linear:
        return static_cast<double>(in_features) *
               static_cast<double>(out_features);
      case OpKind::BatchNorm:
        return static_cast<double>(out.elems()); // scale+shift
      case OpKind::Relu:
      case OpKind::Sigmoid:
        return 0.5 * static_cast<double>(out.elems());
      case OpKind::Silu:
        // x * sigmoid(x): a few flops per element.
        return 2.0 * static_cast<double>(out.elems());
      case OpKind::Add:
        return 0.5 * static_cast<double>(out.elems());
      case OpKind::MaxPool:
      case OpKind::AvgPool:
        return 0.5 * static_cast<double>(out.elems()) * kernel * kernel;
      case OpKind::GlobalAvgPool:
        return 0.5 * static_cast<double>(in.elems());
      case OpKind::Upsample:
        return 0.5 * static_cast<double>(out.elems());
      case OpKind::Concat:
      case OpKind::Slice:
      case OpKind::Input:
        return 0.0;
    }
    return 0.0;
}

bool
Layer::tensorCoreEligible() const
{
    // Dense matrix math maps onto tensor cores; grouped convs with
    // tiny channel counts and everything elementwise do not.
    switch (kind) {
      case OpKind::Conv:
        return groups == 1 && in.c >= 8 && out_channels >= 8;
      case OpKind::Linear:
        return in_features >= 32 && out_features >= 32;
      default:
        return false;
    }
}

Network::Network(std::string name, Shape input)
    : name_(std::move(name))
{
    JETSIM_ASSERT(input.c > 0 && input.h > 0 && input.w > 0,
                  "input shape %dx%dx%d has a non-positive dimension",
                  input.c, input.h, input.w);
    Layer l;
    l.name = "input";
    l.kind = OpKind::Input;
    l.in = input;
    l.out = input;
    push(std::move(l));
}

JETSIM_COLD_OK("model construction: layer topology is built once before the clock starts")
int
Network::push(Layer l)
{
    l.id = static_cast<int>(layers_.size());
    for (int in : l.inputs)
        JETSIM_ASSERT(in >= 0 && in < l.id);
    layers_.push_back(std::move(l));
    FieldDigest fold{layers_digest_};
    visitFields(fold, layers_.back());
    output_ = layers_.back().id;
    return output_;
}

Shape
Network::shapeOf(int id) const
{
    return layer(id).out;
}

const Layer &
Network::layer(int id) const
{
    JETSIM_ASSERT(id >= 0 && id < static_cast<int>(layers_.size()));
    return layers_[static_cast<std::size_t>(id)];
}

int
Network::addConv(const std::string &name, int input, int out_channels,
                 int kernel, int stride, int padding, int dilation,
                 int groups, bool bias)
{
    JETSIM_ASSERT(out_channels > 0 && kernel > 0 && stride > 0 &&
                      padding >= 0 && dilation >= 1 && groups >= 1,
                  "conv '%s' has impossible parameters", name.c_str());
    Layer l;
    l.name = name;
    l.kind = OpKind::Conv;
    l.inputs = {input};
    l.in = shapeOf(input);
    JETSIM_ASSERT(l.in.c % groups == 0);
    l.out_channels = out_channels;
    l.kernel = kernel;
    l.stride = stride;
    l.padding = padding;
    l.dilation = dilation;
    l.groups = groups;
    l.bias = bias;

    const int eff_k = dilation * (kernel - 1) + 1;
    l.out.c = out_channels;
    l.out.h = (l.in.h + 2 * padding - eff_k) / stride + 1;
    l.out.w = (l.in.w + 2 * padding - eff_k) / stride + 1;
    JETSIM_ASSERT(l.out.h > 0 && l.out.w > 0);
    return push(std::move(l));
}

int
Network::addBatchNorm(const std::string &name, int input)
{
    Layer l;
    l.name = name;
    l.kind = OpKind::BatchNorm;
    l.inputs = {input};
    l.in = shapeOf(input);
    l.out = l.in;
    return push(std::move(l));
}

int
Network::addActivation(const std::string &name, int input, OpKind kind)
{
    JETSIM_ASSERT(kind == OpKind::Relu || kind == OpKind::Silu ||
                  kind == OpKind::Sigmoid);
    Layer l;
    l.name = name;
    l.kind = kind;
    l.inputs = {input};
    l.in = shapeOf(input);
    l.out = l.in;
    return push(std::move(l));
}

int
Network::addPool(const std::string &name, int input, OpKind kind,
                 int kernel, int stride, int padding)
{
    JETSIM_ASSERT(kind == OpKind::MaxPool || kind == OpKind::AvgPool);
    JETSIM_ASSERT(kernel > 0 && stride > 0 && padding >= 0,
                  "pool '%s' has impossible parameters", name.c_str());
    Layer l;
    l.name = name;
    l.kind = kind;
    l.inputs = {input};
    l.in = shapeOf(input);
    l.kernel = kernel;
    l.stride = stride;
    l.padding = padding;
    l.out.c = l.in.c;
    l.out.h = (l.in.h + 2 * padding - kernel) / stride + 1;
    l.out.w = (l.in.w + 2 * padding - kernel) / stride + 1;
    JETSIM_ASSERT(l.out.h > 0 && l.out.w > 0);
    return push(std::move(l));
}

int
Network::addGlobalAvgPool(const std::string &name, int input)
{
    Layer l;
    l.name = name;
    l.kind = OpKind::GlobalAvgPool;
    l.inputs = {input};
    l.in = shapeOf(input);
    l.out = Shape{l.in.c, 1, 1};
    return push(std::move(l));
}

int
Network::addAdd(const std::string &name, int a, int b)
{
    Layer l;
    l.name = name;
    l.kind = OpKind::Add;
    l.inputs = {a, b};
    l.in = shapeOf(a);
    JETSIM_ASSERT(shapeOf(a) == shapeOf(b));
    l.out = l.in;
    return push(std::move(l));
}

int
Network::addLinear(const std::string &name, int input,
                   std::int64_t out_features, bool bias)
{
    JETSIM_ASSERT(out_features > 0,
                  "linear '%s' has non-positive out_features",
                  name.c_str());
    Layer l;
    l.name = name;
    l.kind = OpKind::Linear;
    l.inputs = {input};
    l.in = shapeOf(input);
    l.in_features = l.in.elems();
    l.out_features = out_features;
    l.bias = bias;
    l.out = Shape{static_cast<int>(out_features), 1, 1};
    return push(std::move(l));
}

int
Network::addUpsample(const std::string &name, int input, int factor)
{
    JETSIM_ASSERT(factor >= 2);
    Layer l;
    l.name = name;
    l.kind = OpKind::Upsample;
    l.inputs = {input};
    l.in = shapeOf(input);
    l.factor = factor;
    l.out = Shape{l.in.c, l.in.h * factor, l.in.w * factor};
    return push(std::move(l));
}

int
Network::addConcat(const std::string &name, std::vector<int> inputs)
{
    JETSIM_ASSERT(inputs.size() >= 2);
    Layer l;
    l.name = name;
    l.kind = OpKind::Concat;
    l.in = shapeOf(inputs.front());
    int c = 0;
    for (int in : inputs) {
        const Shape s = shapeOf(in);
        JETSIM_ASSERT(s.h == l.in.h && s.w == l.in.w);
        c += s.c;
    }
    l.inputs = std::move(inputs);
    l.out = Shape{c, l.in.h, l.in.w};
    return push(std::move(l));
}

int
Network::addSlice(const std::string &name, int input, int from_c,
                  int to_c)
{
    Layer l;
    l.name = name;
    l.kind = OpKind::Slice;
    l.inputs = {input};
    l.in = shapeOf(input);
    JETSIM_ASSERT(from_c >= 0 && to_c <= l.in.c && from_c < to_c);
    l.slice_from = from_c;
    l.slice_to = to_c;
    l.out = Shape{to_c - from_c, l.in.h, l.in.w};
    return push(std::move(l));
}

void
Network::setOutput(int id)
{
    JETSIM_ASSERT(id >= 0 && id < static_cast<int>(layers_.size()));
    output_ = id;
}

std::int64_t
Network::totalParams() const
{
    std::int64_t p = 0;
    for (const auto &l : layers_)
        p += l.params();
    return p;
}

double
Network::totalMacs() const
{
    double m = 0;
    for (const auto &l : layers_)
        m += l.macs();
    return m;
}

std::int64_t
Network::totalActivationElems() const
{
    std::int64_t n = 0;
    for (const auto &l : layers_)
        if (l.kind != OpKind::Input)
            n += l.out.elems();
    return n;
}

std::int64_t
Network::peakActivationElems() const
{
    // Exact liveness over the (already topological) layer order.
    const int n = static_cast<int>(layers_.size());
    std::vector<int> last_use(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        last_use[static_cast<std::size_t>(i)] = i;
        for (int in : layers_[static_cast<std::size_t>(i)].inputs)
            last_use[static_cast<std::size_t>(in)] = i;
    }
    last_use[static_cast<std::size_t>(output_)] = n;

    std::int64_t live = 0, peak = 0;
    for (int i = 0; i < n; ++i) {
        live += layers_[static_cast<std::size_t>(i)].out.elems();
        peak = std::max(peak, live);
        for (int j = 0; j < i; ++j)
            if (last_use[static_cast<std::size_t>(j)] == i)
                live -= layers_[static_cast<std::size_t>(j)].out.elems();
    }
    return peak;
}

std::string
Network::toDot() const
{
    std::string out = "digraph \"" + name_ + "\" {\n"
                      "  rankdir=TB;\n  node [shape=box, "
                      "fontsize=10];\n";
    char buf[192];
    for (const auto &l : layers_) {
        std::snprintf(buf, sizeof(buf),
                      "  n%d [label=\"%s\\n%s %dx%dx%d\"];\n", l.id,
                      l.name.c_str(), opName(l.kind), l.out.c,
                      l.out.h, l.out.w);
        out += buf;
        for (int in : l.inputs) {
            std::snprintf(buf, sizeof(buf), "  n%d -> n%d;\n", in,
                          l.id);
            out += buf;
        }
    }
    out += "}\n";
    return out;
}

std::uint64_t
Network::digest() const
{
    check::Digest d = layers_digest_;
    d.add(name_);
    d.add(static_cast<std::int64_t>(output_));
    return d.value();
}

void
Network::validate() const
{
    JETSIM_ASSERT(!layers_.empty());
    JETSIM_ASSERT(layers_.front().kind == OpKind::Input);
    for (const auto &l : layers_) {
        for (int in : l.inputs)
            JETSIM_ASSERT(in >= 0 && in < l.id);
        JETSIM_ASSERT(l.out.elems() > 0);
        if (l.kind != OpKind::Input)
            JETSIM_ASSERT(!l.inputs.empty());
    }
}

} // namespace jetsim::graph
