"""The convergence record: one row per append."""

from krylov_recycle.records import ConvergenceRecord


def test_each_append_adds_one_row():
    # Rows that share a matvec count stay apart: no append merges into or
    # rewrites the row before it.
    record = ConvergenceRecord()
    record.append(0, 1, 5, 0.5)
    record.append(0, 1, 5, 0.5, true_rel=0.4, event="restart", d_p=0.1, p=3)
    record.append(1, 0, 4, 0.3, true_rel=0.3, event="coupling")
    assert [(r.matvecs, r.event) for r in record.rows] == [
        (5, "none"), (5, "restart"), (4, "coupling")]
    first = record.rows[0]
    assert first.true_residual_rel is None and first.d_p is None
    assert not hasattr(record, "mark_event")
