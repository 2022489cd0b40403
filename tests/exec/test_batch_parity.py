"""Expression-layer parity: ``evaluate_batch`` against per-row ``evaluate``.

Operators evaluate expressions a whole batch at a time, while DML, sargs
and index probes still evaluate one row at a time; both must agree value
by value.  Predicates come from the testgen query generator (nested
AND/OR/NOT over comparisons, IS NULL, BETWEEN, IN, LIKE, column-vs-column
and arithmetic leaves) over NULL-heavy rows of a generated schema, on the
single-table and two-table shapes.  Every sub-expression is checked, not
just the root.  An expression whose row evaluation raises on some row is
skipped: vectorized evaluation may raise at a different row, and only
error-free expressions are held to value parity.
"""

import random

import pytest

from repro import Server, ServerConfig
from repro.exec.batch import Batch
from repro.exec.expr import (
    evaluate,
    evaluate_batch,
    evaluate_predicate,
    evaluate_predicate_batch,
)
from repro.common.errors import ExecutionError
from repro.sql import Binder, ast, parse_statement
from repro.testgen import QueryGenerator, SchemaGenerator
from repro.testgen.schema import ColumnSpec

SEEDS = (101, 202, 303)
PREDICATES_PER_SHAPE = 60
#: Most values are NULL, so three-valued logic is exercised everywhere.
NULL_FRACTION = 0.4
#: Two-table environments are a sample of the cross product.
MAX_PAIRS = 400


def null_heavy_rows(rng, table):
    specs = [
        ColumnSpec(c.name, c.type_name, NULL_FRACTION, c.length)
        for c in table.columns
    ]
    return [
        (pk,) + tuple(spec.random_value(rng) for spec in specs)
        for pk in range(table.initial_rows)
    ]


def sub_expressions(expr):
    """``expr`` and every expression nested inside it, parents first."""
    yield expr
    for value in vars(expr).values():
        children = value if isinstance(value, (list, tuple)) else [value]
        for child in children:
            if isinstance(child, tuple):
                # CASE branches are (condition, result) pairs.
                for item in child:
                    if isinstance(item, ast.Expression):
                        yield from sub_expressions(item)
            elif isinstance(child, ast.Expression):
                yield from sub_expressions(child)


def row_values(expr, envs, evaluate_fn):
    """Per-row values as reprs (so 1, 1.0 and True stay distinct), or
    None when some row raises."""
    try:
        return [repr(evaluate_fn(expr, env)) for env in envs]
    except (ExecutionError, TypeError):
        return None


def shapes(seed):
    """A server holding ``seed``'s generated schema (tables left empty),
    NULL-heavy rows per table, and the (from clause, [(alias, table)])
    query shapes."""
    schema = SchemaGenerator(seed).generate()
    rng = random.Random("parity:%d" % seed)
    server = Server(ServerConfig(start_buffer_governor=False))
    conn = server.connect()
    rows = {}
    for statement in schema.ddl_statements():
        conn.execute(statement)
    for table in schema.tables:
        rows[table.name] = null_heavy_rows(rng, table)
    first, second = schema.tables[0], schema.tables[1]
    return server, rng, schema, rows, [
        ("%s a" % first.name, [("a", first)]),
        ("%s a, %s b" % (first.name, second.name),
         [("a", first), ("b", second)]),
    ]


def environments(block, sources, rows, rng):
    ids = {q.alias: q.id for q in block.quantifiers}
    if len(sources) == 1:
        alias, table = sources[0]
        return [{ids[alias]: row} for row in rows[table.name]]
    (a_alias, a_table), (b_alias, b_table) = sources
    pairs = [
        {ids[a_alias]: left, ids[b_alias]: right}
        for left in rows[a_table.name]
        for right in rows[b_table.name]
    ]
    return rng.sample(pairs, min(MAX_PAIRS, len(pairs)))


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_evaluation_matches_row_evaluation(seed):
    server, rng, schema, rows, shape_list = shapes(seed)
    generator = QueryGenerator(rng, schema)
    checked = 0
    for from_sql, sources in shape_list:
        pool = generator._column_pool(sources)
        for __ in range(PREDICATES_PER_SHAPE):
            predicate = generator.predicate(pool)
            statement = parse_statement(
                "SELECT * FROM %s WHERE %s" % (from_sql, predicate)
            )
            block = Binder(server.catalog).bind(statement)
            envs = environments(block, sources, rows, rng)
            batch = Batch.from_envs(envs)
            for conjunct in block.conjuncts:
                for expr in sub_expressions(conjunct.expr):
                    expected = row_values(expr, envs, evaluate)
                    if expected is None:
                        continue
                    values = evaluate_batch(expr, batch)
                    assert list(map(repr, values)) == expected, (
                        predicate, expr,
                    )
                    mask = evaluate_predicate_batch(expr, batch)
                    assert list(map(repr, mask)) == row_values(
                        expr, envs, evaluate_predicate
                    ), (predicate, expr)
                    checked += 1
    assert checked >= PREDICATES_PER_SHAPE * len(shape_list)
