// Reproduces the Section VIII case study (Figs. 10-12): visualising the
// dependency between one target station and its 10 nearest stations across
// time.
//
//  - Fig. 10 (existing approach): GBike's distance-prior attention. Expected
//    shape: weight decays monotonically with distance and barely varies
//    across time slots.
//  - Figs. 11-12 (STGNN-DJD): PCG attention (head-averaged) from/to the
//    target during 07:00-10:00 and 15:00-18:00. Expected shape: rows and
//    columns vary across time and station, and the non-monotone count shows
//    the locality assumption does not always hold.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "baselines/gbike.h"
#include "bench/bench_common.h"
#include "core/stgnn_djd.h"
#include "graph/graph.h"

namespace stgnn::bench {
namespace {

// ASCII shade for a weight relative to the row maximum.
char Shade(float value, float row_max) {
  static const char kRamp[] = " .:-=+*#%@";
  if (row_max <= 0.0f) return ' ';
  const int idx = std::min<int>(9, static_cast<int>(value / row_max * 9.99f));
  return kRamp[idx];
}

struct HeatMap {
  // rows: time slots; cols: the 10 nearest stations (ordered by distance).
  std::vector<std::vector<float>> cells;
};

void PrintHeatMap(const char* title, const HeatMap& map) {
  std::printf("%s\n", title);
  std::printf("   slot | nearest ........ farthest\n");
  int non_monotone_rows = 0;
  for (size_t r = 0; r < map.cells.size(); ++r) {
    std::printf("   %4zu | ", r);
    float row_max = 0.0f;
    for (float v : map.cells[r]) row_max = std::max(row_max, v);
    for (float v : map.cells[r]) std::printf("%c ", Shade(v, row_max));
    // A row is "non-monotone" when some farther station outweighs the
    // nearest one.
    bool non_monotone = false;
    for (size_t c = 1; c < map.cells[r].size(); ++c) {
      if (map.cells[r][c] > map.cells[r][0]) non_monotone = true;
    }
    if (non_monotone) ++non_monotone_rows;
    std::printf("%s\n", non_monotone ? "  <- distant > nearest" : "");
  }
  std::printf("   rows where a distant station outweighs the nearest: "
              "%d / %zu\n\n",
              non_monotone_rows, map.cells.size());
}

void Run() {
  const data::FlowDataset& flow = ChicagoDataset();
  const int n = flow.num_stations;

  // Target: the first downtown station (the analog of the paper's Wabash
  // Ave & Grand Ave pick — a busy central station).
  const int target = 2;  // district 0 slot 2 = downtown role
  std::vector<double> lat, lon;
  for (const auto& s : flow.stations) {
    lat.push_back(s.lat);
    lon.push_back(s.lon);
  }
  const tensor::Tensor dist = graph::HaversineDistanceMatrix(lat, lon);
  std::vector<int> order;
  for (int j = 0; j < n; ++j) {
    if (j != target) order.push_back(j);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return dist.at(target, a) < dist.at(target, b);
  });
  order.resize(10);

  std::printf("== Case study (Figs. 10-12): station %d ('%s') vs its 10 "
              "nearest ==\n\n",
              target, flow.stations[target].name.c_str());

  // First full test day.
  const int day0 = (flow.val_end / flow.slots_per_day) * flow.slots_per_day;
  const int slots_per_hour = flow.slots_per_day / 24;
  auto window_slots = [&](int begin_hour, int end_hour) {
    std::vector<int> slots;
    for (int t = day0 + begin_hour * slots_per_hour;
         t < day0 + end_hour * slots_per_hour; ++t) {
      slots.push_back(t);
    }
    return slots;
  };

  // --- Fig. 10: the "existing approach" (GBike distance-prior attention) ---
  baselines::GBike gbike(BenchNeuralOptions(1));
  std::fprintf(stderr, "  training GBike...\n");
  gbike.Train(flow);
  HeatMap gbike_map;
  for (int t : window_slots(7, 10)) {
    const tensor::Tensor attn = gbike.FirstLayerAttentionAt(flow, t);
    std::vector<float> row;
    for (int j : order) row.push_back(attn.at(target, j));
    gbike_map.cells.push_back(std::move(row));
  }
  PrintHeatMap("Fig. 10: existing approach (GBike), influence from others "
               "to the target, 07:00-10:00",
               gbike_map);

  // --- Figs. 11-12: STGNN-DJD PCG attention ---
  core::StgnnConfig case_config = BenchStgnnConfig(1);
  case_config.epochs = 14;
  case_config.max_samples_per_epoch = 320;
  core::StgnnDjdPredictor stgnn(case_config);
  std::fprintf(stderr, "  training STGNN-DJD...\n");
  stgnn.Train(flow);

  auto stgnn_map = [&](const std::vector<int>& slots, bool from_target) {
    HeatMap map;
    for (int t : slots) {
      const auto heads = stgnn.PcgAttentionAt(flow, t);
      std::vector<float> row;
      for (int j : order) {
        float mean = 0.0f;
        for (const auto& head : heads) {
          // attention(i, j) = influence of j on i.
          mean += from_target ? head.at(j, target) : head.at(target, j);
        }
        row.push_back(mean / heads.size());
      }
      map.cells.push_back(std::move(row));
    }
    return map;
  };

  PrintHeatMap("Fig. 11(a): STGNN-DJD, influence FROM the target TO others, "
               "07:00-10:00",
               stgnn_map(window_slots(7, 10), /*from_target=*/true));
  PrintHeatMap("Fig. 11(b): STGNN-DJD, influence FROM others TO the target, "
               "07:00-10:00",
               stgnn_map(window_slots(7, 10), /*from_target=*/false));
  PrintHeatMap("Fig. 12(a): STGNN-DJD, influence FROM the target TO others, "
               "15:00-18:00",
               stgnn_map(window_slots(15, 18), /*from_target=*/true));
  PrintHeatMap("Fig. 12(b): STGNN-DJD, influence FROM others TO the target, "
               "15:00-18:00",
               stgnn_map(window_slots(15, 18), /*from_target=*/false));
}

}  // namespace
}  // namespace stgnn::bench

int main() {
  stgnn::bench::Run();
  return 0;
}
