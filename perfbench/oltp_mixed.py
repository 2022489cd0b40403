"""oltp_mixed: two closed-loop sessions of point reads and small writes.

Per-statement fixed costs dominate here: parse, bind, optimize, the plan
cache, GClock page replacement, B-tree descents, WAL append/force and
group commit, locks and checkpoints.  The 20,000-row ``kv`` table (about
925 pages) fits the default 1,024-page pool.

Each session owns the keys congruent to its number modulo
:data:`SESSIONS` and reads and writes only those, so the benchmark knows
the answer to every read from the statements it generated: the
statement list carries each read's expected rows.  Simulated think time
between transactions lets the buffer and checkpoint governors, which
poll every 20-60 simulated seconds, act several times per epoch.
"""

import bisect
import functools
import random

from harness import READ, WRITE, Recorder, measure, timed

ROWS = 20_000
SESSIONS = 2
ZIPF_SKEW = 0.8
THINK_US = 250_000
#: Restart-time target of the checkpoint governor.  With it and the think
#: time above, the governor checkpoints about 30 times an epoch, about 2%
#: of the statements stall behind a checkpoint, and the p99 simulated
#: tail measures that stall.
RECOVERY_TARGET_US = 500_000
#: Autocommit UPDATEs between the closing checkpoint and the crash.
CLOSING_WRITES = 100
#: Transactions per session per epoch, by kind.  Reads are 70% of the
#: statements, split evenly between SELECT text and CALL of a procedure
#: the plan cache serves; updates and inserts are 20% and 10%.  A
#: ``rollback`` transaction is BEGIN, two UPDATEs and ROLLBACK.  An
#: epoch reads fewer than 1,000 times, so the read tail is p90: about 3%
#: of reads absorb a garbage-collector pass, and a p99 at the edge of
#: that group moved by 30% between runs.
MIX = {"select": 245, "call": 245, "update": 133, "insert": 70,
       "rollback": 4}
#: Share of reads aimed at keys the session inserted earlier.
READ_INSERTED = 0.1


def pad(key):
    return "pad-%036d" % key


class Plan:
    """Everything an epoch runs, generated from the seed alone."""

    def __init__(self, seed, initial, sessions, closing, final):
        self.seed = seed
        self.initial = initial      # [(k, v, pad)] loaded at set-up
        self.sessions = sessions    # per session: [(sql, kind, expect, think)]
        self.closing = closing      # SQL run before the crash
        self.final = final          # {k: (v, pad)} committed at the end

    def statements(self):
        return ([[step[0] for step in steps] for steps in self.sessions]
                + [self.closing])


class _Zipf:
    """Zipf-distributed ranks in ``[0, n)`` by inverse-CDF bisection."""

    def __init__(self, n, skew):
        total = 0.0
        self.cumulative = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** skew
            self.cumulative.append(total)

    def draw(self, rng):
        point = rng.random() * self.cumulative[-1]
        return min(bisect.bisect_left(self.cumulative, point),
                   len(self.cumulative) - 1)


def build(seed, rows=ROWS, mix=MIX):
    rng = random.Random("oltp_mixed:%d" % seed)
    initial = [(k, rng.randrange(1_000_000), pad(k)) for k in range(rows)]
    final = {k: (v, p) for k, v, p in initial}
    sessions = []
    for s in range(SESSIONS):
        srng = random.Random("oltp_mixed:%d:session%d" % (seed, s))
        owned = list(range(s, rows, SESSIONS))
        # Hot keys are scattered over the table, not clustered at its head.
        srng.shuffle(owned)
        zipf = _Zipf(len(owned), ZIPF_SKEW)
        model = {k: final[k][0] for k in owned}
        inserted = []
        kinds = [kind for kind, count in mix.items() for _ in range(count)]
        srng.shuffle(kinds)
        steps = []

        def update_sql(key, value):
            return "UPDATE kv SET v = %d WHERE k = %d" % (value, key)

        for kind in kinds:
            if kind in ("select", "call"):
                if inserted and srng.random() < READ_INSERTED:
                    key = srng.choice(inserted)
                else:
                    key = owned[zipf.draw(srng)]
                sql = ("SELECT v FROM kv WHERE k = %d" % key
                       if kind == "select" else "CALL get_v(%d)" % key)
                steps.append((sql, READ, [(model[key],)], THINK_US))
            elif kind == "update":
                key = owned[zipf.draw(srng)]
                value = srng.randrange(1_000_000)
                model[key] = value
                steps.append((update_sql(key, value), WRITE, 1, THINK_US))
            elif kind == "insert":
                key = rows + SESSIONS * len(inserted) + s
                value = srng.randrange(1_000_000)
                inserted.append(key)
                model[key] = value
                steps.append((
                    "INSERT INTO kv VALUES (%d, %d, '%s')"
                    % (key, value, pad(key)),
                    WRITE, 1, THINK_US,
                ))
            else:
                steps.append(("BEGIN", WRITE, None, 0))
                for _ in range(2):
                    key = owned[zipf.draw(srng)]
                    steps.append((
                        update_sql(key, srng.randrange(1_000_000)),
                        WRITE, 1, 0,
                    ))
                steps.append(("ROLLBACK", WRITE, None, THINK_US))
        for key, value in model.items():
            final[key] = (value, pad(key))
        sessions.append(steps)
    closing = []
    for _ in range(CLOSING_WRITES):
        key = rng.randrange(rows)
        value = rng.randrange(1_000_000)
        final[key] = (value, pad(key))
        closing.append("UPDATE kv SET v = %d WHERE k = %d" % (value, key))
    return Plan(seed, initial, sessions, closing, final)


def setup(plan):
    """Build the server and load the data; returns (server, conn)."""
    from repro import Server, ServerConfig
    from repro.recovery.checkpoint import CheckpointConfig

    server = Server(ServerConfig(
        start_checkpoint_governor=True,
        checkpoint=CheckpointConfig(
            recovery_time_target_us=RECOVERY_TARGET_US),
    ), sanitize=False)
    conn = server.connect()
    conn.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT, pad VARCHAR(40))")
    server.load_table("kv", plan.initial)
    conn.execute(
        "CREATE PROCEDURE get_v(wanted) AS SELECT v FROM kv WHERE k = wanted"
    )
    server.checkpoint()
    return server, conn


def run_epoch(plan, tracer=None):
    from repro.engine import WorkloadScheduler

    (server, conn), setup_time = timed(lambda: setup(plan))
    recorder = Recorder(server, tracer)
    failures = []

    def run_step(sql, kind, expect, think, session_conn):
        result = recorder.execute(session_conn, sql, kind)
        got = ([tuple(r) for r in result.rows] if kind == READ
               else result.rowcount)
        if expect is not None and got != expect:
            failures.append("%s returned %r, expected %r" % (sql, got, expect))
        if think:
            recorder.think(think)

    def source(steps):
        def statements(_session_conn):
            with recorder.session():
                for step in steps:
                    yield functools.partial(run_step, *step)

        return statements

    scheduler = WorkloadScheduler(server, seed=plan.seed)
    for index, steps in enumerate(plan.sessions):
        scheduler.add_session("s%d" % index, source(steps))

    def live_rows():
        return [(k, v, p) for k, (v, p) in plan.final.items()]

    def checks():
        rows = sorted(tuple(r) for r in conn.execute(
            "SELECT k, v, pad FROM kv").rows)
        if rows != sorted(live_rows()):
            failures.append(
                "kv after restart: %d rows, expected %d committed rows "
                "(or contents differ)" % (len(rows), len(plan.final))
            )
        return failures

    calls = sum(1 for steps in plan.sessions for step in steps
                if step[0].startswith("CALL"))
    written = sum(8 + 8 + len(pad(0)) for steps in plan.sessions
                  for step in steps
                  if step[0].startswith(("UPDATE", "INSERT")))
    return measure(server, conn, recorder, scheduler.run, setup_time,
                   plan.closing, live_rows, checks,
                   written=lambda: written, calls=calls)
