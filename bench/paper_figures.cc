// The paper's evaluation figures (Sec. VI, Figs. 4-11), reproduced from the
// figure table in src/expr/figures.cc: each figure runs its golden preset
// at the paper's horizon, prints its series table and paper comparisons,
// and writes <out-dir>/<figure>.{csv,json} plus <out-dir>/<figure>.series.csv.
// Figures that resolve to the same sweep share one run.
//
// Flags: --figure=fig04..fig11 (default: all eight) --hours --warmup
//        --seed=42 --threads=<hardware> --out-dir=results

#include <cstdio>
#include <exception>

#include "expr/figures.h"
#include "expr/flags.h"

int main(int argc, char** argv) {
  try {
    cloudmedia::expr::run_paper_figures(cloudmedia::expr::Flags(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_paper_figures: %s\n", e.what());
    return 2;
  }
  return 0;
}
