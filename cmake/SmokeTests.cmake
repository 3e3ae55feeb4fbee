# Smoke tier: fast pass/fail runs of paper-figure code, labelled "smoke".
# Run with `ctest -L smoke`. Each job downsizes the simulated horizon where
# the binary takes flags, so the whole tier completes in well under a minute.

# Per-test timeout. The default fits an optimized build; the CI sanitize
# job raises it (ASan/UBSan on a Debug build is several times slower).
if(NOT DEFINED CLOUDMEDIA_SMOKE_TIMEOUT)
  set(CLOUDMEDIA_SMOKE_TIMEOUT 45)
endif()

# add_smoke_test(<name> <target> [args...])
function(add_smoke_test name target)
  if(NOT TARGET ${target})
    message(WARNING "smoke test ${name}: target ${target} missing, skipped")
    return()
  endif()
  add_test(NAME smoke.${name} COMMAND ${target} ${ARGN})
  set_tests_properties(smoke.${name} PROPERTIES
    LABELS "smoke"
    TIMEOUT ${CLOUDMEDIA_SMOKE_TIMEOUT})
endfunction()

# add_usage_error_test(<name> <target> <stderr regex> [args...]): the binary
# must refuse `args` with exit code 2 and a teaching error matching the
# regex on stderr — not abort on an uncaught exception.
function(add_usage_error_test name target expect)
  if(NOT TARGET ${target})
    message(WARNING "smoke test ${name}: target ${target} missing, skipped")
    return()
  endif()
  string(JOIN " " args ${ARGN})
  add_test(NAME smoke.${name} COMMAND ${CMAKE_COMMAND}
    "-DPROGRAM=$<TARGET_FILE:${target}>" "-DARGS=${args}" "-DEXPECT=${expect}"
    -P "${PROJECT_SOURCE_DIR}/cmake/ExpectUsageError.cmake")
  set_tests_properties(smoke.${name} PROPERTIES
    LABELS "smoke"
    TIMEOUT ${CLOUDMEDIA_SMOKE_TIMEOUT})
endfunction()

if(CLOUDMEDIA_BUILD_EXAMPLES)
  add_smoke_test(quickstart example_quickstart)
  add_smoke_test(capacity_planning example_capacity_planning)
  add_smoke_test(cs_vs_p2p example_cs_vs_p2p --hours=2 --seed=42)
  add_smoke_test(flash_crowd example_flash_crowd --hours=2 --warmup=1 --seed=42)
  add_smoke_test(forecasting example_forecasting --days=2 --seed=42)
  add_smoke_test(geo_distributed example_geo_distributed --hours=2 --seed=42)
endif()

if(CLOUDMEDIA_BUILD_TOOLS)
  add_smoke_test(diag_hourly tool_diag_hourly --hours=2 --seed=42)
  # The sweep_demo golden preset (the same grid the goldens/ snapshot
  # pins); CI uploads its CSV/JSON.
  add_smoke_test(sweep_demo tool_sweep --golden=sweep_demo --threads=4
    --out=${CMAKE_BINARY_DIR}/artifacts/sweep_demo)
  # One composed-scenario sweep per commit: `a+b` goes through
  # ScenarioCatalog::resolve end to end (CI runs the smoke tier on both
  # gcc and clang, so the resolver is exercised on each).
  add_smoke_test(sweep_composed tool_sweep
    --scenario=flash_crowd+churn_heavy --grid mode=cs,p2p
    --hours=0.25 --warmup=0.1 --seed=42
    --out=${CMAKE_BINARY_DIR}/artifacts/sweep_composed)
  # One timed-scenario sweep per commit: `@`-ops travel through resolve,
  # land on the config timeline, and fire at the hour-1 and hour-2
  # provisioning boundaries inside the 0.5 + 2.5 h horizon.
  add_smoke_test(sweep_timeline tool_sweep
    --scenario=regional_outage@1h+recovery@2h --grid mode=cs
    --hours=2.5 --warmup=0.5 --seed=42
    --out=${CMAKE_BINARY_DIR}/artifacts/sweep_timeline)
  # Gate the smoke tier on the checked-in snapshot: the demo output just
  # written above must diff clean against goldens/sweep_demo.json.
  add_smoke_test(golden_diff tool_sweep --diff
    ${CMAKE_BINARY_DIR}/artifacts/sweep_demo.json
    ${PROJECT_SOURCE_DIR}/goldens/sweep_demo.json
    --out=${CMAKE_BINARY_DIR}/artifacts/golden_diff.json)
  if(TEST smoke.golden_diff)
    set_tests_properties(smoke.golden_diff PROPERTIES DEPENDS smoke.sweep_demo)
  endif()
  # Scenario fuzzer at smoke scale: a few seeded random profiles through
  # all four invariants (conservation, budget, quality, determinism); the
  # full 25-profile sweep runs in CI's fuzz-smoke step with a
  # commit-stable seed. Plus the pinned fuzzer-found repro, replayed so
  # the budget-rounding contract is exercised under the sanitizers too.
  add_smoke_test(fuzz tool_fuzz --runs=3 --seed=42
    --out=${CMAKE_BINARY_DIR}/artifacts/fuzz)
  add_smoke_test(fuzz_replay tool_fuzz
    --replay=${PROJECT_SOURCE_DIR}/profiles/fuzz/budget_rounding.json)
  # Each tool turns a bad flag into `tool_x: <message>` and exit 2.
  add_usage_error_test(sweep_usage_error tool_sweep
    "^tool_sweep: --seed conflicts with --golden"
    --golden=ablation_strategies --seed=42)
  # A negative seed is refused, not wrapped to 2^64 - 5.
  add_usage_error_test(sweep_negative_seed tool_sweep
    "^tool_sweep: --seed expects an unsigned integer, got '-5'"
    --scenario=baseline_diurnal --hours=0.5 --seed=-5)
  # A grid or --set value that leaves an invalid cell config fails at load
  # time, naming the cell, instead of aborting mid-sweep.
  add_usage_error_test(sweep_invalid_cell tool_sweep
    "^tool_sweep: grid cell 0 \\(vm_budget=-1\\)"
    --grid vm_budget=-1 --hours=0.05 --warmup=0)
  add_usage_error_test(sweep_invalid_override_cell tool_sweep
    "^tool_sweep: grid cell 0 \\(strategy=reactive\\)"
    --set vm_budget=-1 --grid strategy=reactive)
  # A non-finite workload value fails the same way, not mid-sweep.
  add_usage_error_test(sweep_nonfinite_cell tool_sweep
    "^tool_sweep: grid cell 0 \\(arrival=inf\\)"
    --grid arrival=inf --hours=0.05 --warmup=0)
  # --list prints each choice parameter's spellings from the registry.
  add_smoke_test(sweep_list tool_sweep --list)
  if(TEST smoke.sweep_list)
    set_tests_properties(smoke.sweep_list PROPERTIES
      PASS_REGULAR_EXPRESSION "\n  mode +cs\\|p2p\n")
  endif()
  # --dump-profile prints what would run, schedule flags included.
  add_smoke_test(sweep_dump_profile tool_sweep --scenario=flash_crowd
    --seed=7 --hours=0.5 --warmup=0 --shard=1/2 --dump-profile)
  if(TEST smoke.sweep_dump_profile)
    set_tests_properties(smoke.sweep_dump_profile PROPERTIES
      PASS_REGULAR_EXPRESSION
      "\"seed\": \"7\",.*\"measure_hours\": 0\\.5,.*\"shard\": \"1/2\"")
  endif()
  add_usage_error_test(fuzz_usage_error tool_fuzz
    "^tool_fuzz: unknown flag --rns" --rns=3)
  add_usage_error_test(diag_hourly_usage_error tool_diag_hourly
    "^tool_diag_hourly: --p2p expects true/false/1/0/yes/no, got 'ture'"
    --p2p=ture)
  # A schedule that would loop forever or step the clock backwards.
  add_usage_error_test(diag_hourly_step_zero tool_diag_hourly
    "^tool_diag_hourly: --step must be > 0 seconds" --step=0)
  add_usage_error_test(diag_hourly_from_negative tool_diag_hourly
    "^tool_diag_hourly: --from must be in \\[0, --hours\\) hours" --from=-1)
  # A step that does not divide the span, and a start within one step of
  # the horizon: the last row must still land at --hours.
  add_smoke_test(diag_hourly_partial_step tool_diag_hourly --hours=1
    --step=2400)
  add_smoke_test(diag_hourly_late_start tool_diag_hourly --hours=1 --from=0.5)
  set_tests_properties(smoke.diag_hourly_partial_step
    smoke.diag_hourly_late_start PROPERTIES
    PASS_REGULAR_EXPRESSION "\n +1\\.000 +[0-9]")
  # Distributed path, end to end: the same demo grid as two --shard halves,
  # stitched with --merge, then diffed against the committed golden — the
  # shard/merge round-trip must reproduce the single-process bytes.
  add_smoke_test(sweep_shard0 tool_sweep --golden=sweep_demo --shard=0/2
    --threads=2 --out=${CMAKE_BINARY_DIR}/artifacts/sweep_demo_shard0)
  add_smoke_test(sweep_shard1 tool_sweep --golden=sweep_demo --shard=1/2
    --threads=2 --out=${CMAKE_BINARY_DIR}/artifacts/sweep_demo_shard1)
  add_smoke_test(sweep_merge tool_sweep --merge
    ${CMAKE_BINARY_DIR}/artifacts/sweep_demo_merged
    ${CMAKE_BINARY_DIR}/artifacts/sweep_demo_shard0.json
    ${CMAKE_BINARY_DIR}/artifacts/sweep_demo_shard1.json)
  add_smoke_test(shard_merge_diff tool_sweep --diff
    ${CMAKE_BINARY_DIR}/artifacts/sweep_demo_merged.json
    ${PROJECT_SOURCE_DIR}/goldens/sweep_demo.json
    --out=${CMAKE_BINARY_DIR}/artifacts/shard_merge_diff.json)
  if(TEST smoke.sweep_merge)
    set_tests_properties(smoke.sweep_merge PROPERTIES
      DEPENDS "smoke.sweep_shard0;smoke.sweep_shard1")
    set_tests_properties(smoke.shard_merge_diff PROPERTIES
      DEPENDS smoke.sweep_merge)
  endif()
endif()

# The sweep engine's contract tests — thread-count determinism, the
# scenario-catalog round-trip, and the parameter-applier registry — also
# gate the smoke tier, so the fast path (scripts/verify.sh --smoke, CI's
# smoke step) cannot pass with a nondeterministic or unconstructible sweep.
if(TARGET sweep_test)
  add_smoke_test(sweep_determinism sweep_test
    --gtest_filter=SweepRunner.*:ScenarioCatalog.*:ParamGrid.*)
endif()

# The write-through results store and the shard merge: concurrent push()
# calls from a 4- and 8-worker sweep, the sticky I/O-failure path and the
# --merge validation. Smoke-labelled so the sanitizer job runs them under
# ASan/UBSan on every commit.
if(TARGET store_test)
  add_smoke_test(results_store store_test
    --gtest_filter=ResultsStore.*:ShardMerge.*)
endif()

# Every study of the table in src/expr/figures.cc — the paper figures and
# the sweep ablations — through bench_paper_figures, at a downscaled
# horizon: every entry stays runnable end to end. Two measured hours, so
# the figures' hourly tables, scatters and fits see more than one bucket.
if(CLOUDMEDIA_BUILD_BENCH)
  set(CLOUDMEDIA_SMOKE_ARGS --hours=2 --warmup=1 --seed=42)
  # The whole table in one process: the shared-sweep path (entries whose
  # specs hash equal read one SweepRunner::run result), so the sanitizer
  # job covers every report over shared results.
  add_smoke_test(paper_figures bench_paper_figures ${CLOUDMEDIA_SMOKE_ARGS}
    --out-dir=${CMAKE_BINARY_DIR}/artifacts/paper_figures)
  # One entry per job through --figure selection.
  foreach(entry IN ITEMS fig04 fig05 fig06 fig07 fig08 fig09 fig10 fig11
      ablation_strategies ablation_pooling ablation_boot_delay
      ablation_chunk_size ablation_geo ablation_hetero ablation_p2p_cap
      ablation_prediction)
    add_smoke_test(${entry} bench_paper_figures --figure=${entry}
      ${CLOUDMEDIA_SMOKE_ARGS}
      --out-dir=${CMAKE_BINARY_DIR}/artifacts/paper_figures_single)
  endforeach()
  # A typo'd flag dies with the teaching error instead of running the
  # full paper horizon with defaults.
  add_usage_error_test(paper_figures_typo bench_paper_figures
    "did you mean --hours" --hour=2)
  # Every bench refuses a bad flag value with `bench_x: <message>` and
  # exit 2 before it runs; only a tripped gate aborts.
  add_usage_error_test(discrete_bench_usage_error bench_discrete_smoke
    "^bench_discrete_smoke: --rate must be > 0 arrivals/s, got -1" --rate=-1)
  add_usage_error_test(cohort_bench_usage_error bench_cohort_smoke
    "^bench_cohort_smoke: --viewers must be > 0" --viewers=-1)
  add_usage_error_test(store_bench_usage_error bench_store_smoke
    "^bench_store_smoke: --cells must be >= 32, got 5" --cells=5)
  add_usage_error_test(sweep_bench_usage_error bench_sweep_smoke
    "^bench_sweep_smoke: --hours must be a finite number of hours > 0"
    --hours=-1)
  add_usage_error_test(ablation_bench_usage_error
    bench_ablation_heuristic_vs_exact
    "^bench_ablation_heuristic_vs_exact: --instances must be >= 1, got -1"
    --instances=-1)
  # Sweep-engine throughput tracker (3x3 grid, downsized horizon).
  add_smoke_test(sweep_bench bench_sweep_smoke --hours=0.25 --warmup=0.1
    --out=${CMAKE_BINARY_DIR}/artifacts/BENCH_sweep.json)
  # Streaming results-store gate at smoke scale (the full ~10k-cell grid
  # runs in a dedicated CI step): flat streaming RSS + buffered separation.
  add_smoke_test(store_bench bench_store_smoke --cells=3072
    --out=${CMAKE_BINARY_DIR}/artifacts/BENCH_store_smoke.json
    --store-out=${CMAKE_BINARY_DIR}/artifacts/store_smoke)
  # Cohort-engine scale gate at smoke size (1M peak viewers; the full
  # 10M-viewer day runs in a dedicated CI step).
  add_smoke_test(cohort_bench bench_cohort_smoke --viewers=1000000 --hours=24
    --out=${CMAKE_BINARY_DIR}/artifacts/BENCH_cohort_smoke.json)
endif()

# The event queue both engines share: the packed {time, seq << kSlotBits |
# slot} heap key, in-place cancel and retime, slot recycling and the
# overflow guards. Smoke-labelled so the sanitizer job runs the heap under
# ASan/UBSan on every commit.
if(TARGET sim_test)
  add_smoke_test(event_queue sim_test --gtest_filter=Simulator.*)
endif()

# The discrete engine's per-peer bookkeeping at unit scale: the id-sorted
# owner lists the rarest-first rebalance reads (insert on a chunk's first
# completion, erase on departure, eviction included) checked against a
# from-scratch bitmap waterfall, the per-slot peer keys (id, uplink,
# owned count) across slot reuse, plus the pool timers and the flat tracker
# counters both engines record into. Smoke-labelled so the sanitizer job
# runs them under ASan/UBSan on every commit.
if(TARGET vod_test)
  add_smoke_test(discrete_rebalance vod_test
    --gtest_filter=StreamingSystem.*:ServicePool.*:Tracker.*)
endif()

# Cohort/discrete engine equivalence gates the smoke tier too: engine=auto
# below the population threshold must replay the discrete engine bit for
# bit, or every committed golden is at risk.
if(TARGET cohort_test)
  add_smoke_test(cohort_equivalence cohort_test
    --gtest_filter=CohortEquivalence.*:EngineKnob.*)
  # The cohort engine's row kernels (row-pointer arena walks, one tracker
  # row call per occupied position) against outputs pinned bit for bit,
  # plus mass conservation, under the sanitizers on every commit.
  add_smoke_test(cohort_kernels cohort_test
    --gtest_filter=CohortEngine.*:CohortSystem.*)
endif()
