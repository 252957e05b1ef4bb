#include <cmath>

#include "autograd/ops.h"
#include "graph/graph.h"
#include "graph/layers.h"
#include "gradcheck.h"
#include "gtest/gtest.h"

namespace stgnn::graph {
namespace {

namespace ag = stgnn::autograd;
using autograd::Variable;
using stgnn::testing::ExpectGradientsClose;
using tensor::Tensor;

TEST(GraphTest, BasicProperties) {
  Tensor w({3, 3}, {0, 1, 0, 2, 0, 0, 0, 0, 3});
  Graph g(w);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_EQ(g.InNeighbors(0), (std::vector<int>{1}));
  EXPECT_EQ(g.InNeighbors(1), (std::vector<int>{0}));
  EXPECT_EQ(g.InNeighbors(2), (std::vector<int>{2}));
  const Tensor mask = g.EdgeMask();
  EXPECT_FLOAT_EQ(mask.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(mask.at(0, 0), 0.0f);
}

TEST(HaversineTest, KnownDistances) {
  // Two points ~1 degree of latitude apart: ~111.2 km.
  const Tensor d = HaversineDistanceMatrix({41.0, 42.0}, {-87.6, -87.6});
  EXPECT_NEAR(d.at(0, 1), 111.2, 1.0);
  EXPECT_FLOAT_EQ(d.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(d.at(0, 1), d.at(1, 0));
}

TEST(DistanceGraphTest, ThresholdRespectsCutoff) {
  // Three stations on a line: 0 -- 1km -- 1 -- 5km -- 2.
  const Tensor d({3, 3}, {0, 1, 6, 1, 0, 5, 6, 5, 0});
  Graph g = DistanceThresholdGraph(d, 2.0, 1.0);
  EXPECT_GT(g.weights().at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(g.weights().at(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(g.weights().at(1, 2), 0.0f);
  // Gaussian kernel value.
  EXPECT_NEAR(g.weights().at(0, 1), std::exp(-1.0), 1e-5);
}

TEST(KnnGraphTest, EachNodeHasKNeighbors) {
  const Tensor d({4, 4}, {0, 1, 2, 3, 1, 0, 1, 2, 2, 1, 0, 1, 3, 2, 1, 0});
  Graph g = KnnGraph(d, 2, 1.0);
  for (int i = 0; i < 4; ++i) {
    int count = 0;
    for (int j = 0; j < 4; ++j) {
      if (g.weights().at(i, j) > 0.0f) ++count;
    }
    EXPECT_EQ(count, 2) << "node " << i;
  }
  // Nearest nodes selected: node 0's neighbours are 1 and 2.
  EXPECT_GT(g.weights().at(0, 1), 0.0f);
  EXPECT_GT(g.weights().at(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(g.weights().at(0, 3), 0.0f);
}

TEST(NormalizedAdjacencyTest, SymmetricAndBounded) {
  Tensor adj({3, 3}, {0, 1, 0, 1, 0, 1, 0, 1, 0});
  const Tensor norm = NormalizedAdjacency(adj);
  // Symmetric input stays symmetric.
  EXPECT_TRUE(norm.AllClose(norm.Transpose(), 1e-6f));
  // Self-loop weight of an isolated node would be 1; here all < 1.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_GE(norm.at(i, j), 0.0f);
      EXPECT_LE(norm.at(i, j), 1.0f);
    }
  }
  // Largest eigenvalue of D^-1/2 (A+I) D^-1/2 is 1 for this construction;
  // verify via a power-iteration-ish check: row sums <= degree bound.
  EXPECT_GT(norm.at(0, 0), 0.0f);  // self loops present
}

TEST(NormalizedAdjacencyTest, IsolatedNodeGetsSelfLoopOnly) {
  Tensor adj = Tensor::Zeros({2, 2});
  const Tensor norm = NormalizedAdjacency(adj);
  EXPECT_TRUE(norm.AllClose(Tensor::Eye(2)));
}

TEST(RowNormalizedTest, RowsSumToOne) {
  Tensor adj({2, 2}, {2, 2, 0, 0});
  const Tensor norm = RowNormalized(adj);
  EXPECT_FLOAT_EQ(norm.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(norm.at(0, 1), 0.5f);
  // Zero row falls back to a self loop.
  EXPECT_FLOAT_EQ(norm.at(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(norm.at(1, 0), 0.0f);
}

TEST(GcnLayerTest, ShapeAndLinearity) {
  common::Rng rng(1);
  GcnLayer layer(4, 3, &rng);
  Variable adj = Variable::Constant(NormalizedAdjacency(Tensor::Zeros({5, 5})));
  Variable h = Variable::Constant(Tensor::Ones({5, 4}));
  Variable out = layer.Forward(h, adj);
  EXPECT_EQ(out.value().shape(), (tensor::Shape{5, 3}));
  // With identity adjacency, output is ReLU(H W + b): doubling H (minus
  // bias effect with zero bias init) doubles positive outputs.
  Variable out2 =
      layer.Forward(Variable::Constant(Tensor::Full({5, 4}, 2.0f)), adj);
  for (int64_t i = 0; i < out.value().size(); ++i) {
    if (out.value().flat(i) > 0.0f) {
      EXPECT_NEAR(out2.value().flat(i), 2.0f * out.value().flat(i), 1e-4);
    }
  }
}

TEST(GcnLayerTest, PropagatesInformationAcrossEdges) {
  common::Rng rng(2);
  GcnLayer layer(1, 1, &rng);
  // Two-node graph with an edge; distinct features.
  Tensor adj({2, 2}, {0, 1, 1, 0});
  Variable norm_adj = Variable::Constant(NormalizedAdjacency(adj));
  Tensor features({2, 1}, {1.0f, 0.0f});
  Variable out = layer.Forward(Variable::Constant(features), norm_adj,
                               /*apply_relu=*/false);
  // Node 1 receives node 0's signal: output not zero (bias is zero init).
  EXPECT_NE(out.value().at(1, 0), 0.0f);
}

TEST(GcnLayerTest, Gradcheck) {
  common::Rng rng(3);
  GcnLayer layer(3, 2, &rng);
  Tensor adj = NormalizedAdjacency(Tensor({3, 3}, {0, 1, 0, 1, 0, 1, 0, 1, 0}));
  const Tensor features = Tensor::RandomUniform({3, 3}, -1, 1, &rng);
  ExpectGradientsClose(
      [&layer, &adj](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Square(layer.Forward(
            v[0], Variable::Constant(adj), /*apply_relu=*/false)));
      },
      {features});
}

TEST(GatLayerTest, AttentionRowsSumToOneOnEdges) {
  common::Rng rng(4);
  GatLayer layer(3, 4, &rng);
  // Mask with self loops.
  Tensor mask({3, 3}, {1, 1, 0, 1, 1, 1, 0, 1, 1});
  Variable h = Variable::Constant(Tensor::RandomUniform({3, 3}, -1, 1, &rng));
  const Tensor attn = layer.Attention(h, Variable::Constant(mask));
  for (int i = 0; i < 3; ++i) {
    float total = 0.0f;
    for (int j = 0; j < 3; ++j) {
      if (mask.at(i, j) == 0.0f) {
        EXPECT_LT(attn.at(i, j), 1e-6f) << i << "," << j;
      }
      total += attn.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-4);
  }
}

TEST(GatLayerTest, OutputShape) {
  common::Rng rng(5);
  GatLayer layer(6, 2, &rng);
  Variable h = Variable::Constant(Tensor::RandomUniform({4, 6}, -1, 1, &rng));
  Variable out = layer.Forward(
      h, Variable::Constant(Tensor::Ones({4, 4})));
  EXPECT_EQ(out.value().shape(), (tensor::Shape{4, 2}));
}

TEST(GatLayerTest, GradientsFlowToParameters) {
  common::Rng rng(6);
  GatLayer layer(3, 3, &rng);
  Variable h = Variable::Constant(Tensor::RandomUniform({3, 3}, -1, 1, &rng));
  Variable out = layer.Forward(h, Variable::Constant(Tensor::Ones({3, 3})));
  ag::SumAll(ag::Square(out)).Backward();
  for (const auto& p : layer.parameters()) {
    EXPECT_GT(tensor::SumAll(tensor::Abs(p.grad())).item(), 0.0f);
  }
}

}  // namespace
}  // namespace stgnn::graph
