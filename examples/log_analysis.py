"""Internet log analysis — the paper's second workload class (§3.1).

Loads a week of synthetic web-access logs, answers operations questions
through the natural-language interface, and runs the canned log-analytics
query set at the cheap best-of-effort tier (batch reporting is exactly
the "non-urgent" query class the paper's pricing targets).  Runs with
the observability stack on, so the session ends with the fleet view an
operator would use: the top statements by billed $, a tail-captured
slow query with its full cost-attribution profile, and the size of every
byte-stable artifact the stack exports (``db.export(kind)``).

Run:  python examples/log_analysis.py
"""

from repro import CapturePolicy, PixelsDB, ServiceLevel
from repro.obs import EXPORTS
from repro.workloads import LOGS_QUERIES


def main() -> None:
    db = PixelsDB(
        observe=True,
        seed=11,
        capture=CapturePolicy(slowest_n=3),
    )
    db.load_logs("weblogs", num_rows=30000)

    print("Ad-hoc questions through the NL interface:\n")
    questions = [
        "How many web logs have status equal to 500?",
        "What is the average latency ms per url?",
        "Top 5 web logs by bytes sent",
    ]
    for question in questions:
        sql = db.ask("weblogs", question)
        query = db.submit("weblogs", sql, ServiceLevel.IMMEDIATE)
        db.run_to_completion()
        print(f"Q: {question}")
        print(f"   {sql}")
        for row in query.result_rows()[:5]:
            print("   ", row)
        print()

    print("Nightly batch report at the best-of-effort tier ($0.5/TB):\n")
    batch = {
        name: db.submit("weblogs", sql, ServiceLevel.BEST_EFFORT)
        for name, sql in LOGS_QUERIES.items()
    }
    db.run_to_completion()
    total = 0.0
    for name, query in batch.items():
        total += query.price
        print(
            f"  {name:<22} {query.status.value:<9} "
            f"rows={len(query.result_rows()):>3}  ${query.price:.9f}"
        )
    print(f"\nWhole report billed: ${total:.9f} "
          f"(would be 10x at the immediate tier)")

    print("\nTop 5 statements by billed $ (pg_stat_statements-style):\n")
    print(db.statements_top(5, "dollars"))

    captures = [c for c in db.obs.journal.captures() if "profile" in c]
    if captures:
        slowest = captures[0]
        print("Tail-captured slow query (full profile evidence attached):\n")
        print(f"  query     {slowest['query_id']}  level={slowest['level']}")
        print(f"  reasons   {', '.join(slowest['reasons'])}")
        print(f"  billed    {slowest['billed_nanodollars']} nano$")
        for child in slowest["profile"]["children"]:
            print(
                f"    {child['name']:<20} {child['self_time_s']:.3f}s  "
                f"{child['self_nanodollars']} nano$"
            )

    print("\nEvery export kind of the observed stack:\n")
    for kind in EXPORTS:
        print(f"  {kind:<12} {len(db.export(kind)):>9} bytes")


if __name__ == "__main__":
    main()
