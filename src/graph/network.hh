/**
 * @file
 * Neural-network graph IR.
 *
 * A Network is a DAG of layers over CHW tensors (batch is handled by
 * the engine builder, since the paper compiles engines for fixed
 * batch sizes with dynamic batching disabled). Layers are appended in
 * topological order; shape inference runs at insertion. The IR
 * computes per-layer parameter counts, multiply-accumulate counts and
 * activation sizes — the quantities every downstream cost and memory
 * model consumes.
 */

#ifndef JETSIM_GRAPH_NETWORK_HH
#define JETSIM_GRAPH_NETWORK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/digest.hh"
#include "sim/fields.hh"
#include "sim/types.hh"

namespace jetsim::graph {

/** Tensor shape per image: channels x height x width. */
struct Shape
{
    int c = 0;
    int h = 0;
    int w = 0;

    std::int64_t
    elems() const
    {
        return static_cast<std::int64_t>(c) * h * w;
    }

    bool operator==(const Shape &) const = default;
};

template <class V, sim::FieldsOf<Shape> S>
void
visitFields(V &v, S &s)
{
    v("c", s.c);
    v("h", s.h);
    v("w", s.w);
}

/** Operator kinds supported by the IR. */
enum class OpKind {
    Input,
    Conv,          ///< 2-D convolution (groups and dilation supported)
    BatchNorm,
    Relu,
    Silu,
    Sigmoid,
    Add,           ///< elementwise sum of two tensors
    MaxPool,
    AvgPool,
    GlobalAvgPool,
    Linear,        ///< fully connected on flattened input
    Upsample,      ///< nearest/bilinear integer-factor upsample
    Concat,        ///< channel concatenation
    Slice,         ///< channel range selection
};

/** Human-readable operator name. */
const char *opName(OpKind k);

/** One node of the graph. */
struct Layer
{
    int id = -1;
    std::string name;
    OpKind kind = OpKind::Input;
    std::vector<int> inputs; ///< producer layer ids
    Shape in;                ///< first input's shape
    Shape out;               ///< inferred output shape

    // Convolution / pooling parameters (when applicable).
    int out_channels = 0;
    int kernel = 0;
    int stride = 1;
    int padding = 0;
    int dilation = 1;
    int groups = 1;
    bool bias = false;

    // Linear parameters.
    std::int64_t in_features = 0;
    std::int64_t out_features = 0;

    // Upsample factor; Slice channel range.
    int factor = 1;
    int slice_from = 0;
    int slice_to = 0;

    /** Learnable parameter count of this layer. */
    std::int64_t params() const;

    /** Multiply-accumulate operations per image. */
    double macs() const;

    /** True for layers the TensorRT-like builder can put on tensor
     * cores (dense matrix math). */
    bool tensorCoreEligible() const;
};

template <class V, sim::FieldsOf<Layer> S>
void
visitFields(V &v, S &l)
{
    v("id", l.id);
    v("name", l.name);
    v("kind", l.kind);
    v("inputs", l.inputs);
    v("in", l.in);
    v("out", l.out);
    v("out_channels", l.out_channels);
    v("kernel", l.kernel);
    v("stride", l.stride);
    v("padding", l.padding);
    v("dilation", l.dilation);
    v("groups", l.groups);
    v("bias", l.bias);
    v("in_features", l.in_features);
    v("out_features", l.out_features);
    v("factor", l.factor);
    v("slice_from", l.slice_from);
    v("slice_to", l.slice_to);
}

/** A DAG of layers with single output. */
class Network
{
  public:
    /** Create a network with one Input layer of shape @p input. */
    Network(std::string name, Shape input);

    const std::string &name() const { return name_; }

    /** @name Builders
     * Each returns the new layer's id. Input ids must already exist.
     * @{ */
    int addConv(const std::string &name, int input, int out_channels,
                int kernel, int stride = 1, int padding = 0,
                int dilation = 1, int groups = 1, bool bias = false);
    int addBatchNorm(const std::string &name, int input);
    int addActivation(const std::string &name, int input, OpKind kind);
    int addPool(const std::string &name, int input, OpKind kind,
                int kernel, int stride, int padding = 0);
    int addGlobalAvgPool(const std::string &name, int input);
    int addAdd(const std::string &name, int a, int b);
    int addLinear(const std::string &name, int input,
                  std::int64_t out_features, bool bias = true);
    int addUpsample(const std::string &name, int input, int factor);
    int addConcat(const std::string &name, std::vector<int> inputs);
    int addSlice(const std::string &name, int input, int from_c,
                 int to_c);
    /** @} */

    /** Id of the Input layer (always 0). */
    int inputId() const { return 0; }

    /** Mark the network output (defaults to the last added layer). */
    void setOutput(int id);

    int outputId() const { return output_; }

    const Layer &layer(int id) const;
    const std::vector<Layer> &layers() const { return layers_; }
    std::size_t size() const { return layers_.size(); }

    /** Total learnable parameters. */
    std::int64_t totalParams() const;

    /** Total MACs per image. */
    double totalMacs() const;

    /** Sum of all intermediate tensor elements (per image). */
    std::int64_t totalActivationElems() const;

    /**
     * Peak simultaneous activation working set (per image), computed
     * with exact liveness over the topological order: a tensor is
     * live from its production until its last consumer.
     */
    std::int64_t peakActivationElems() const;

    /** Panics if the graph is malformed (dangling inputs, etc). */
    void validate() const;

    /** Render the DAG as a Graphviz dot document. */
    std::string toDot() const;

    /**
     * Content digest: every field of every layer (in insertion
     * order), the name and the output id. Two networks with equal
     * digests compile to the same engine, so this is the network's
     * share of the engine-cache key (trt::sharedEngine). O(1): the
     * layers are folded in as they are added.
     */
    std::uint64_t digest() const;

  private:
    int push(Layer l);
    Shape shapeOf(int id) const;

    std::string name_;
    std::vector<Layer> layers_;
    int output_ = 0;
    check::Digest layers_digest_; ///< every layer pushed so far
};

} // namespace jetsim::graph

#endif // JETSIM_GRAPH_NETWORK_HH
