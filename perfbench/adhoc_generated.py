"""adhoc_generated: generated query text from one connection, no scheduler.

This is the metamorphic soak's traffic.  The schema, its rows and every
statement come from ``repro.testgen``'s seeded generators, so statement
texts almost never repeat: the lexer, parser, binder and join-histogram
estimation lead the profile, and text-keyed caches and the plan cache
are bypassed.  A cache gain on ``oltp_mixed`` must show nothing here.

Queries cover nested predicates, NULLs, two-way joins, aggregates,
DISTINCT and ORDER BY/LIMIT; a third of the statements are generated
DML, a few of them inside a transaction that rolls back.  The tables
stay small enough to fit the pool.  After the timed phase a sample of
generated queries must pass the TLP (ternary logic partitioning)
oracle, and after the restart every table must read back exactly what
it held before the crash.
"""

import random

from harness import READ, WRITE, Recorder, measure, timed, user_bytes

#: One generated schema and initial load for every seed: three tables of
#: 24-48 rows with INT, DOUBLE and VARCHAR columns, NULL fractions up to
#: 25% and a secondary index each.  The seed draws the statements.  A
#: schema drawn per seed, larger tables, or DML that lets tables grow
#: would swing statement costs between seeds by more than the bounds.
SCHEMA_SEED = 0
MAX_TABLES = 3
MAX_ROWS = 48
#: Statements per epoch: generated queries, generated DML (autocommit),
#: and DML wrapped in BEGIN ... ROLLBACK.
QUERIES = 2000
DML = 960
ROLLED_BACK = 40
TLP_SAMPLE = 20
#: Generated DML between the closing checkpoint and the crash.
CLOSING_WRITES = 1000


class Plan:
    """Everything an epoch runs, generated from the seed alone."""

    def __init__(self, seed, setup_sql, steps, tlp_queries, closing):
        self.seed = seed
        self.setup_sql = setup_sql      # DDL and the initial load
        self.steps = steps              # [(sql, kind)]
        self.tlp_queries = tlp_queries  # [GeneratedQuery], checked after
        self.closing = closing          # SQL run before the crash

    def statements(self):
        return [[sql for sql, _kind in self.steps], self.closing]


def build(seed, queries=QUERIES, dml=DML, rolled_back=ROLLED_BACK,
          tlp_sample=TLP_SAMPLE):
    from repro.testgen import QueryGenerator, SchemaGenerator
    from repro.testgen.schema import random_dml

    schema = SchemaGenerator(SCHEMA_SEED, max_tables=MAX_TABLES,
                             max_rows=MAX_ROWS).generate()
    setup_sql = schema.ddl_statements() + schema.load_statements(
        random.Random("adhoc_generated:load"))
    rng = random.Random("adhoc_generated:%d" % seed)
    generator = QueryGenerator(rng, schema)
    live = {table.name: set(range(table.next_pk)) for table in schema.tables}
    kinds = ["query"] * queries + ["dml"] * dml + ["rollback"] * rolled_back
    rng.shuffle(kinds)
    steps = []
    for kind in kinds:
        if kind == "query":
            query = (generator.norec_query() if rng.random() < 0.5
                     else generator.tlp_query())
            steps.append((query.sql(), READ))
            continue
        statement = _stationary_dml(rng, schema, live, random_dml)
        if kind == "dml":
            steps.append((statement, WRITE))
        else:
            steps += [("BEGIN", WRITE), (statement, WRITE),
                      ("ROLLBACK", WRITE)]
    closing = [_stationary_dml(rng, schema, live, random_dml)
               for _ in range(CLOSING_WRITES)]
    tlp_rng = random.Random("adhoc_generated:%d:tlp" % seed)
    tlp_generator = QueryGenerator(tlp_rng, schema)
    tlp_queries = [tlp_generator.tlp_query() for _ in range(tlp_sample)]
    return Plan(seed, setup_sql, steps, tlp_queries, closing)


def _stationary_dml(rng, schema, live, random_dml):
    """A generated DML statement that keeps every table near its loaded
    size: an INSERT into a table already at that size is drawn again.

    ``live`` tracks each table's primary keys as the statements would
    leave them, so table sizes, and with them statement costs, stay the
    same from the first statement of an epoch to the last.
    """
    while True:
        table = rng.choice(schema.tables)
        statement = random_dml(rng, table)
        keys = live[table.name]
        if statement.startswith("INSERT"):
            if len(keys) >= table.initial_rows:
                table.next_pk -= 1
                continue
            keys.add(table.next_pk - 1)
        elif statement.startswith("DELETE"):
            keys.discard(int(statement.rsplit("=", 1)[1]))
        return statement


def setup(plan):
    """Build the server and load the data; returns (server, conn)."""
    from repro import Server, ServerConfig

    server = Server(ServerConfig(), sanitize=False)
    conn = server.connect()
    for sql in plan.setup_sql:
        conn.execute(sql)
    server.checkpoint()
    return server, conn


def _table_contents(server, conn):
    return {
        table.name: sorted(
            (tuple(r) for r in conn.execute(
                "SELECT * FROM %s" % table.name).rows),
            key=repr,
        )
        for table in server.catalog.tables()
    }


def run_epoch(plan, tracer=None):
    from repro.testgen import check_tlp

    (server, conn), setup_time = timed(lambda: setup(plan))
    recorder = Recorder(server, tracer)
    before_crash = {}

    changed = {}

    def run():
        with recorder.session():
            for sql, kind in plan.steps:
                result = recorder.execute(conn, sql, kind)
                if kind == WRITE and result.rowcount:
                    table = _dml_table(sql)
                    changed[table] = changed.get(table, 0) + result.rowcount

    def live_rows():
        failures.extend(
            "TLP: %s" % outcome["violation"]
            for outcome in (check_tlp(conn, q) for q in plan.tlp_queries)
            if outcome["violation"] is not None
        )
        before_crash.update(_table_contents(server, conn))
        return [row for rows in before_crash.values() for row in rows]

    def checks():
        after = _table_contents(server, conn)
        for table, rows in before_crash.items():
            if after.get(table) != rows:
                failures.append(
                    "%s after restart: %d rows, %d committed before the "
                    "crash (or contents differ)"
                    % (table, len(after.get(table, [])), len(rows))
                )
        return failures

    def written():
        # Rows the DML changed, at the mean size of a live row of the table.
        return sum(
            count * sum(map(user_bytes, before_crash[table]))
            / max(1, len(before_crash[table]))
            for table, count in changed.items()
        )

    failures = []
    return measure(server, conn, recorder, run, setup_time, plan.closing,
                   live_rows, checks, written=written)


def _dml_table(sql):
    """The table an INSERT INTO / UPDATE / DELETE FROM statement targets."""
    words = sql.split()
    return words[1] if words[0] == "UPDATE" else words[2]
