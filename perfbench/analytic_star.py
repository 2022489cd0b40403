"""analytic_star: star-join reports beside a trickle of appended facts.

The executor dominates here: batch operators, joins, aggregates and
sorts, page I/O, pool misses, spills and the memory governor.  Parse and
optimize are negligible, and with 256 frames GClock is cheap, so a
front-end or page-replacement change must show no effect on this
workload.  The fact table is about five times the 256-page pool that
``GovernorConfig.upper_bound_bytes`` caps.

Two closed-loop sessions share the server.  The reporting session runs
range-restricted star joins, GROUP BYs and range scans over the loaded
facts, a few full-table reports, and one full-table ORDER BY that spills
past the per-task memory quota.  The appending session inserts facts in
small committed transactions (a few roll back) with simulated think
time between them, so reports read snapshots beside writes, and the
governors poll while reports run.  Commits are forced at once rather
than held for a group: a held commit would park until the reporter
blocked too, which it never does, and the appends would run after the
reports.

Every report answer is checked after the timed phase against values
computed from the generated rows.  A range report touches only loaded
facts, so its answer is fixed.  A full-table report must equal the
loaded facts plus some prefix of the committed appends, one the
appender had committed between the report's start and its completion.
"""

import functools
import random
from collections import Counter

from harness import READ, WRITE, Recorder, measure, timed, user_bytes

FACTS = 20_000
POOL_PAGES = 256
NOTE = 40
DATES, STORES, ITEMS = 365, 100, 500
MONTHS, REGIONS, CATEGORIES = 12, 8, 20
#: Reports per epoch, by kind.  Range reports read RANGE facts through
#: the primary-key index; the 13 full-table reports fill the top of the
#: latency distribution, so the p90 read tail (the 90th of 100) falls
#: inside them rather than on the boundary between the two groups.
REPORTS = {"range_agg": 40, "range_month": 27, "range_region": 20,
           "full_category": 6, "full_region": 6, "full_sort": 1}
RANGE = 200
#: Append transactions per epoch and rows per transaction.
APPENDS = 100
ROLLBACKS = 5
APPEND_ROWS = 5
#: Append transactions between the closing checkpoint and the crash.
CLOSING_APPENDS = 20
THINK_US = 2_000_000
#: Chance that the scheduler hands the baton over at a pool miss (it
#: always does at a statement boundary).  A full-table report misses
#: about a thousand times; at the scheduler's default of 0.25 the
#: appender would finish every append inside the first one.  At this
#: rate the appends spread over about four fifths of the reports, and
#: about one report in six, every full-table kind among them, sees
#: commits land while it runs.
SWITCH_RATE = 0.005


def month(date_id):
    return date_id * MONTHS // DATES


def region(store_id):
    return store_id % REGIONS


def category(item_id):
    return item_id % CATEGORIES


#: ``(table, attribute column, rows, attribute of an id)`` per dimension.
DIMENSIONS = (
    ("dim_date", "month", DATES, month),
    ("dim_store", "region", STORES, region),
    ("dim_item", "category", ITEMS, category),
)


def _fact(rng, fact_id):
    return (fact_id, rng.randrange(DATES), rng.randrange(STORES),
            rng.randrange(ITEMS), rng.randrange(1, 10),
            rng.randrange(1, 1000), "n%0*d" % (NOTE - 1, fact_id))


# Each report kind: (SQL with a {where} slot, answer from fact rows).
# Facts are (id, date_id, store_id, item_id, qty, amount, note).

def _agg(facts, _arg):
    return [(len(facts), sum(r[5] for r in facts),
             min(r[4] for r in facts), max(r[4] for r in facts))]


def _by_month(facts, _arg):
    groups = Counter()
    totals = Counter()
    for r in facts:
        groups[month(r[1])] += 1
        totals[month(r[1])] += r[5]
    return sorted((m, groups[m], totals[m]) for m in groups)


def _by_region(facts, wanted):
    totals = Counter()
    for r in facts:
        if category(r[3]) == wanted:
            totals[region(r[2])] += r[4]
    return sorted(totals.items())


def _by_category(facts, _arg):
    groups = Counter()
    totals = Counter()
    for r in facts:
        groups[category(r[3])] += 1
        totals[category(r[3])] += r[5]
    return sorted((c, groups[c], totals[c]) for c in groups)


def _sorted_pairs(facts, _arg):
    return sorted(((r[0], r[5]) for r in facts), key=lambda p: (p[1], p[0]))


AGG_SQL = ("SELECT COUNT(*), SUM(amount), MIN(qty), MAX(qty) FROM fact f"
           "{where}")
MONTH_SQL = ("SELECT d.month, COUNT(*), SUM(f.amount) FROM fact f"
             " JOIN dim_date d ON f.date_id = d.id{where} GROUP BY d.month")
REGION_SQL = ("SELECT s.region, SUM(f.qty) FROM fact f"
              " JOIN dim_store s ON f.store_id = s.id"
              " JOIN dim_item i ON f.item_id = i.id"
              "{where} GROUP BY s.region")
CATEGORY_SQL = ("SELECT i.category, COUNT(*), SUM(f.amount) FROM fact f"
                " JOIN dim_item i ON f.item_id = i.id{where}"
                " GROUP BY i.category")
SORT_SQL = "SELECT f.id, f.amount FROM fact f{where} ORDER BY f.amount, f.id"

#: kind -> (SQL, answer, whether it reads a primary-key range).
KINDS = {
    "range_agg": (AGG_SQL, _agg, True),
    "range_month": (MONTH_SQL, _by_month, True),
    "range_region": (REGION_SQL, _by_region, True),
    "full_category": (CATEGORY_SQL, _by_category, False),
    "full_region": (REGION_SQL, _by_region, False),
    "full_sort": (SORT_SQL, _sorted_pairs, False),
}


class Report:
    """One report: its SQL and what its answer must be computed from."""

    def __init__(self, kind, low, wanted):
        template, self.answer_fn, ranged = KINDS[kind]
        self.kind = kind
        self.low = low if ranged else None
        self.wanted = wanted if template is REGION_SQL else None
        conditions = []
        if ranged:
            conditions.append("f.id BETWEEN %d AND %d" % (low, low + RANGE - 1))
        if self.wanted is not None:
            conditions.append("i.category = %d" % wanted)
        where = " WHERE " + " AND ".join(conditions) if conditions else ""
        self.sql = template.format(where=where)

    def answer(self, facts):
        """The expected rows over ``facts``, in the order compared."""
        if self.low is not None:
            facts = facts[self.low:self.low + RANGE]
        return self.answer_fn(facts, self.wanted)

    def matches(self, rows, facts):
        expected = self.answer(facts)
        return (rows if self.kind == "full_sort" else sorted(rows)) == expected


class Plan:
    """Everything an epoch runs, generated from the seed alone."""

    def __init__(self, seed, facts, reports, appends, closing):
        self.seed = seed
        self.facts = facts        # loaded at set-up, in id order
        self.reports = reports    # [Report]
        self.appends = appends    # [(sql, committed rows, think after)]
        self.committed = [rows for _sql, rows, _think in appends if rows]
        self.closing = closing    # [(sql, rows)] run before the crash

    def statements(self):
        return [[report.sql for report in self.reports],
                [sql for sql, _rows, _think in self.appends],
                [sql for sql, _rows in self.closing]]

    def facts_after(self, k):
        """The fact table once the first ``k`` append commits landed."""
        return self.facts + [r for rows in self.committed[:k] for r in rows]


def build(seed, facts=FACTS, reports=REPORTS, appends=APPENDS,
          rollbacks=ROLLBACKS):
    rng = random.Random("analytic_star:%d" % seed)
    loaded = [_fact(rng, i) for i in range(facts)]
    kinds = [kind for kind, count in reports.items() for _ in range(count)]
    rng.shuffle(kinds)
    report_list = [
        Report(kind, rng.randrange(0, facts - RANGE),
               rng.randrange(CATEGORIES))
        for kind in kinds
    ]
    append_list = []
    next_id = facts
    txns = ["commit"] * appends + ["rollback"] * rollbacks
    rng.shuffle(txns)
    for txn in txns:
        sql, rows = _append(rng, next_id)
        if txn == "commit":
            next_id += APPEND_ROWS
            append_list.append((sql, rows, True))
        else:
            append_list += [("BEGIN", None, False), (sql, None, False),
                            ("ROLLBACK", None, True)]
    closing = []
    for _ in range(CLOSING_APPENDS):
        closing.append(_append(rng, next_id))
        next_id += APPEND_ROWS
    return Plan(seed, loaded, report_list, append_list, closing)


def _append(rng, first_id):
    """One append transaction's INSERT and the rows it adds."""
    rows = [_fact(rng, first_id + j) for j in range(APPEND_ROWS)]
    sql = "INSERT INTO fact VALUES %s" % ", ".join(
        "(%d, %d, %d, %d, %d, %d, '%s')" % row for row in rows
    )
    return sql, rows


def setup(plan):
    """Build the server and load the data; returns (server, conn)."""
    from repro import Server, ServerConfig
    from repro.buffer import GovernorConfig
    from repro.storage.log import GroupCommitConfig

    server = Server(ServerConfig(
        # Force every commit at once (see the module docstring).
        group_commit=GroupCommitConfig(max_window_us=0),
        initial_pool_pages=POOL_PAGES,
        governor=GovernorConfig(
            upper_bound_bytes=POOL_PAGES * 4096,
            lower_bound_bytes=POOL_PAGES // 2 * 4096,
        ),
        start_checkpoint_governor=True,
    ), sanitize=False)
    conn = server.connect()
    for table, column, _size, _attribute in DIMENSIONS:
        conn.execute("CREATE TABLE %s (id INT PRIMARY KEY, %s INT,"
                     " label VARCHAR(16))" % (table, column))
    conn.execute(
        "CREATE TABLE fact (id INT PRIMARY KEY, date_id INT, store_id INT,"
        " item_id INT, qty INT, amount INT, note VARCHAR(%d))" % NOTE
    )
    for table, rows in _dimensions().items():
        server.load_table(table, rows)
    server.load_table("fact", plan.facts)
    server.checkpoint()
    return server, conn


def _dimensions():
    """``{table: rows}`` of the three dimension tables."""
    return {
        table: [(i, attribute(i), "%s-%d" % (table[4:], i))
                for i in range(size)]
        for table, _column, size, attribute in DIMENSIONS
    }


def run_epoch(plan, tracer=None):
    from repro.engine import WorkloadScheduler

    (server, conn), setup_time = timed(lambda: setup(plan))
    recorder = Recorder(server, tracer)
    committed = 0
    observed = []

    def run_report(report, session_conn):
        low = committed
        result = recorder.execute(session_conn, report.sql, READ)
        observed.append((report, [tuple(r) for r in result.rows], low,
                         committed))

    def run_append(sql, rows, think, session_conn):
        nonlocal committed
        recorder.execute(session_conn, sql, WRITE)
        if rows:
            committed += 1
        if think:
            recorder.think(THINK_US)

    def reporter(_session_conn):
        with recorder.session():
            for report in plan.reports:
                yield functools.partial(run_report, report)

    def appender(_session_conn):
        with recorder.session():
            for step in plan.appends:
                yield functools.partial(run_append, *step)

    scheduler = WorkloadScheduler(server, seed=plan.seed,
                                  switch_rate=SWITCH_RATE)
    scheduler.add_session("report", reporter)
    scheduler.add_session("append", appender)

    tables = dict(_dimensions(), fact=plan.facts_after(len(plan.committed))
                  + [row for _sql, rows in plan.closing for row in rows])

    def live_rows():
        return [row for rows in tables.values() for row in rows]

    def checks():
        failures = _check_reports(plan, observed)
        for table, expected in tables.items():
            rows = sorted(tuple(r) for r in conn.execute(
                "SELECT * FROM %s" % table).rows)
            if rows != sorted(expected):
                failures.append(
                    "%s after restart: %d rows, expected %d committed rows "
                    "(or contents differ)" % (table, len(rows), len(expected))
                )
        return failures

    written = sum(user_bytes(row) for rows in plan.committed for row in rows)
    return measure(server, conn, recorder, scheduler.run, setup_time,
                   [sql for sql, _rows in plan.closing], live_rows, checks,
                   written=lambda: written)


def _check_reports(plan, observed):
    """Check every report answer; returns the failures.

    A report's snapshot holds the loaded facts plus the first k committed
    appends, for some k the appender had reached between the report's
    start (``low``) and completion (``high``); a range report reads
    loaded facts only, so every k gives it the same answer.
    """
    failures = []
    for report, rows, low, high in observed:
        candidates = [low] if report.low is not None else range(
            low, min(high + 1, len(plan.committed)) + 1)
        if not any(report.matches(rows, plan.facts_after(k))
                   for k in candidates):
            failures.append(
                "%s returned %d rows matching no committed prefix of "
                "%d..%d appends: %r" % (report.sql, len(rows), low, high,
                                        rows[:3])
            )
    return failures
