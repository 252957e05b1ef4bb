#ifndef STGNN_GRAPH_LAYERS_H_
#define STGNN_GRAPH_LAYERS_H_

#include "autograd/ops.h"
#include "graph/graph.h"
#include "nn/module.h"

namespace stgnn::graph {

// Kipf-Welling graph convolution: H' = act(Â H W), where Â is the
// symmetrically normalised adjacency (fixed, not learned).
class GcnLayer : public nn::Module {
 public:
  GcnLayer(int in_features, int out_features, common::Rng* rng);

  // h: [n, in]; norm_adj: constant [n, n] normalised adjacency.
  autograd::Variable Forward(const autograd::Variable& h,
                             const autograd::Variable& norm_adj,
                             bool apply_relu = true) const;

 private:
  int in_features_;
  int out_features_;
  autograd::Variable weight_;
  autograd::Variable bias_;
};

// Single-head graph attention layer (Velickovic et al.) with the edge mask
// restricting attention to graph neighbours. Uses the standard two-vector
// trick: e(i,j) = LeakyReLU-ish activation of (h_i a_src + h_j a_dst).
class GatLayer : public nn::Module {
 public:
  GatLayer(int in_features, int out_features, common::Rng* rng);

  // h: [n, in]; edge_mask: constant [n, n] 0/1 matrix (1 = edge j->i, i.e.
  // node i may attend to node j). Self-loops should be included by the
  // caller if desired.
  autograd::Variable Forward(const autograd::Variable& h,
                             const autograd::Variable& edge_mask) const;

  // The [n, n] attention Forward computes on these inputs (case studies).
  tensor::Tensor Attention(const autograd::Variable& h,
                           const autograd::Variable& edge_mask) const;

 private:
  // Masked row-softmax attention over the projected features P = h W.
  autograd::Variable MaskedAttention(const autograd::Variable& projected,
                                     const autograd::Variable& edge_mask) const;

  int in_features_;
  int out_features_;
  autograd::Variable weight_;  // [in, out]
  autograd::Variable a_src_;   // [out, 1]
  autograd::Variable a_dst_;   // [out, 1]
};

}  // namespace stgnn::graph

#endif  // STGNN_GRAPH_LAYERS_H_
