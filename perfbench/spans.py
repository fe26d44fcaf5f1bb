"""Span recorder for the traced run.

`Tracer.install` rebinds every public function of the library's layer
modules, in every superplactic module that holds a reference to it, to a
wrapper that records one span per call: name, start, end, parent span,
item id, plus a kind (call or generator resume) and a small count.  A
function that returns a generator gets a second wrapper around the
generator, which records one span per resume, so the work done while a
caller iterates is charged to the generator and not to the caller.

Spans stay in typed arrays in memory until the run ends; self time is
derived from them afterward (span duration minus the time covered by its
child spans).  `Tracer.uninstall` puts every original binding back, and
`count_wrappers` finds any wrapper still bound, which the untraced run
uses to prove it carries none.

Private helpers (names starting with "_") are not wrapped, so the bumping
done inside rsk through `_bump_row` counts as rsk self time.
"""

from __future__ import annotations

import inspect
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("alphabet", "shape", "tableau", "bumping", "plactic", "rsk", "ring", "cli")

# Public methods traced besides module-level functions.
METHODS = (("alphabet", "SignedAlphabet", "to_indices"),)

# Spans of these functions also record a count taken from the result.
RESULT_COUNTS = {
    "plactic.plactic_class": len,
    "shape.is_horizontal_strip": int,
    "shape.is_vertical_strip": int,
}

CALL, RESUME = 0, 1
MARK = "__perfbench_span__"


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "superplactic" or name.startswith("superplactic."))]


def count_wrappers() -> int:
    """Number of tracing wrappers bound anywhere in the library."""
    found = 0
    for module in _library_modules():
        for value in list(vars(module).values()):
            if getattr(value, MARK, False):
                found += 1
            if isinstance(value, type):
                found += sum(1 for v in vars(value).values() if getattr(v, MARK, False))
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.item_of = array("q")
        self.kind = array("b")
        self.count = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.item = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int, kind: int) -> int:
        sid = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.item_of.append(self.item)
        self.kind.append(kind)
        self.count.append(0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float, count: int) -> None:
        self.stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1
        self.count[sid] = count

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        counter = RESULT_COUNTS.get(qualname)
        rec = self

        def resumes(gen):
            try:
                while True:
                    sid = rec._open(name_id, RESUME)
                    t0 = perf_counter()
                    try:
                        value = next(gen)
                    except StopIteration:
                        rec._close(sid, t0, perf_counter(), 0)
                        return
                    except BaseException:
                        rec._close(sid, t0, perf_counter(), 0)
                        raise
                    rec._close(sid, t0, perf_counter(), 1)
                    yield value
            finally:
                gen.close()

        def wrapper(*args, **kwargs):
            sid = rec._open(name_id, CALL)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec._close(sid, t0, perf_counter(), 0)
                raise
            t1 = perf_counter()
            rec._close(sid, t0, t1, counter(result) if counter else 0)
            if isinstance(result, types.GeneratorType):
                return resumes(result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- binding ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every public layer function wherever the library holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = sys.modules["superplactic"]
        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer, None) or sys.modules.get("superplactic." + layer)
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap("%s.%s" % (layer, attr), value)
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules["superplactic." + layer], cls_name)
            original = vars(cls)[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap("%s.%s" % (layer, method), original))

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self seconds, values yielded to callers
        outside the function itself, and the sum of result counts."""
        n = len(self.start)
        start, end, parent, name, kind, count = (
            self.start, self.end, self.parent, self.name, self.kind, self.count)
        covered = [0.0] * n
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                covered[p] += end[sid] - start[sid]
        out = {q: {"calls": 0, "self_s": 0.0, "yielded": 0, "counted": 0} for q in self.names}
        for sid in range(n):
            entry = out[self.names[name[sid]]]
            entry["self_s"] += (end[sid] - start[sid]) - covered[sid]
            if kind[sid] == CALL:
                entry["calls"] += 1
                entry["counted"] += count[sid]
            elif count[sid] and (parent[sid] < 0 or name[parent[sid]] != name[sid]):
                entry["yielded"] += 1
        return out

    def spans(self) -> int:
        return len(self.start)
