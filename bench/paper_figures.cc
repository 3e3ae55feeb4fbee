// The paper's evaluation studies, reproduced from the one table in
// src/expr/figures.cc: the eight figures (Sec. VI, Figs. 4-11) and the
// eight sweep ablations. Each entry runs its golden preset at the paper's
// horizon, prints its report and writes <out-dir>/<name>.{csv,json}; each
// figure also writes its table data to <out-dir>/<name>.series.csv.
// Entries that resolve to the same sweep share one run.
//
// Flags: --figure=fig04..fig11|ablation_<name> (default: the whole table)
//        --hours --warmup --seed=42 --threads=<hardware> --out-dir=results

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
