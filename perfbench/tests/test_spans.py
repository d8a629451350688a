import types

from spans import Tracer


def test_self_time_excludes_child_spans_and_restore_undoes_patches():
    module = types.SimpleNamespace()
    tracer = Tracer()

    def child():
        return sum(range(20000))

    def parent():
        return module.child() + module.child()

    module.child, module.parent = child, parent
    tracer.patch(module, "child", tracer.span("child", child))
    tracer.patch(module, "parent", tracer.span("parent", parent))
    assert module.parent() == 2 * child()
    (total,) = tracer.durations["parent"]
    assert len(tracer.durations["child"]) == 2
    children = sum(tracer.durations["child"])
    assert abs(tracer.self_seconds["parent"] - (total - children)) < 1e-12
    tracer.restore()
    assert module.child is child and module.parent is parent
