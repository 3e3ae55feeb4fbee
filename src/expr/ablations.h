#pragma once

// The reports of the sweep-ablation entries in the paper-figure table
// (src/expr/figures.cc): each prints its analytic part, if any, then its
// sweep's rows and the reading. Ablations write no series table.

#include "expr/figures.h"

namespace cloudmedia::expr {

void report_ablation_strategies(const FigureRun& run);
void report_ablation_pooling(const FigureRun& run);
void report_ablation_boot_delay(const FigureRun& run);
void report_ablation_chunk_size(const FigureRun& run);
void report_ablation_geo(const FigureRun& run);
void report_ablation_hetero(const FigureRun& run);
void report_ablation_p2p_cap(const FigureRun& run);
void report_ablation_prediction(const FigureRun& run);

}  // namespace cloudmedia::expr
