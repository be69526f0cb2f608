"""A miniature version of the benchmark protocol.

Random scenes at three difficulty bands (4, 5-6, and 7-8 objects), a 30 s
timeout per case, and the three quality metrics: success rate, step count,
and total displacement distance. The full 80-case-per-level run lives behind
``shelfplan bench``; this keeps the demo under a minute.
"""

from shelfplan import SearchBudget, SuiteConfig, run_suite

cfg = SuiteConfig(
    difficulty="all",
    cases_per_level=5,
    base_seed=42,
    budget=SearchBudget(wall_clock_limit=30.0),
)
rows, records = run_suite(cfg)

failures = [r for r in records if not r["success"]]
print(f"{len(records)} cases planned, {len(failures)} failures\n")
print(f"{'level':<8}{'cases':>6}{'succ%':>8}{'steps':>16}{'displacement':>20}{'time_s':>9}")
for row in rows:
    print(
        f"{row.level:<8}{row.cases:>6}{row.success_rate:>8.1f}"
        f"{row.mean_steps:>10.2f}±{row.std_steps:<5.2f}"
        f"{row.mean_dist:>13.1f}±{row.std_dist:<6.1f}{row.mean_time_s:>9.3f}"
    )

print("\nSteps and displacement average successful cases only; rows labeled")
print("with a digit regroup the same cases by exact object count.")
