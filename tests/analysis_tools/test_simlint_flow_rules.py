"""Self-tests for the flow rules SL011/SL013/SL016 (per-file CFG rules).

Each rule gets positive fixtures (seeded violations it must catch) and
negative fixtures (canonical correct patterns it must stay quiet on).
"""

import textwrap

from repro.analysis_tools.simlint.engine import Linter
from repro.analysis_tools.simlint.flow_rules import flow_rules


def lint(source, relpath="peer/example.py"):
    linter = Linter(rules=flow_rules())
    return linter.lint_source(textwrap.dedent(source), relpath=relpath)


def rules_fired(source, relpath="peer/example.py"):
    return sorted({diag.rule for diag in lint(source, relpath=relpath)})


# ----------------------------------------------------------------------
# SL011 — resource-slot leak
# ----------------------------------------------------------------------

def test_sl011_exception_path_leak_on_raw_grant_wait():
    assert rules_fired("""
        def run(self):
            committer = self._workers.request()
            yield committer
            try:
                yield from self._workers.use(1.0)
            finally:
                self._workers.release(committer)
    """) == ["SL011"]


def test_sl011_early_return_skips_release():
    assert rules_fired("""
        def run(self):
            slot = self.pool.request()
            yield slot
            if self.done:
                return
            self.pool.release(slot)
    """) == ["SL011"]


def test_sl011_fall_through_never_releases():
    assert rules_fired("""
        def run(self):
            slot = self.pool.request()
            yield slot
            yield self.sim.timeout(1.0)
    """) == ["SL011"]


def test_sl011_discarded_bare_acquire():
    diags = lint("""
        def run(self):
            self.pool.request()
            yield from self.pool.use(2.0)
    """)
    assert [d.rule for d in diags] == ["SL011"]
    assert "discarded" in diags[0].message


def test_sl011_clean_on_grant_wait_inside_try_finally():
    assert rules_fired("""
        def run(self):
            committer = self._workers.request()
            try:
                yield committer
                yield from self._workers.use(1.0)
            finally:
                self._workers.release(committer)
    """) == []


def test_sl011_clean_on_acquire_subgenerator_with_try_finally():
    assert rules_fired("""
        def run(self):
            request = yield from self._slots.acquire()
            try:
                yield from self._slots.use(1.0)
            finally:
                self._slots.release(request)
    """) == []


def test_sl011_clean_when_request_escapes_to_a_helper():
    assert rules_fired("""
        def run(self):
            slot = self.pool.request()
            yield slot
            self._stash(slot)
    """) == []


def test_sl011_two_acquires_reported_separately():
    diags = lint("""
        def run(self):
            first = self.pool.request()
            yield first
            second = self.pool.request()
            yield second
            self.pool.release(first)
    """)
    assert [d.rule for d in diags] == ["SL011", "SL011"]


def test_sl011_claim_leaked_on_exception_path():
    # claim() hands out a slot like request(): a release after the
    # service yield, outside a finally, leaks it on an interrupt.
    diags = lint("""
        def run(self):
            held = self.cpu.claim()
            if not held.triggered:
                yield held
            yield self.sim.timeout(1.0)
            self.cpu.release(held)
    """)
    assert [d.rule for d in diags] == ["SL011"]
    assert "'held'" in diags[0].message


def test_sl011_clean_on_claim_released_in_finally():
    assert rules_fired("""
        def run(self):
            held = self.cpu.claim()
            try:
                if not held.triggered:
                    yield held
                yield self.sim.timeout(1.0)
            finally:
                self.cpu.release(held)
    """) == []


def test_sl011_exception_only_leak_under_an_outer_finally():
    # 'other' leaks only if an interrupt lands at its grant wait.  The
    # outer finally body is laid out once, so that exception-path fact
    # also reaches the finally's normal exit: still an exception path.
    diags = lint("""
        def run(self):
            held = self.a.request()
            try:
                yield held
                other = self.b.request()
                yield other
                self.b.release(other)
            finally:
                self.a.release(held)
    """)
    assert [d.rule for d in diags] == ["SL011"]
    assert "'other'" in diags[0].message
    assert "leaks if an exception" in diags[0].message


def test_sl011_kernel_resources_file_is_allowlisted():
    assert rules_fired("""
        def acquire(self):
            request = self.request()
            yield request
            return request
    """, relpath="sim/resources.py") == []


# ----------------------------------------------------------------------
# SL013 — tracer span discipline
# ----------------------------------------------------------------------

def test_sl013_manual_span_not_closed_on_exception_path():
    diags = lint("""
        def run(self):
            span = self.tracer.span("endorse", txid)
            yield from self._work()
            span.close()
    """)
    assert [d.rule for d in diags] == ["SL013"]
    assert "exception path" in diags[0].message


def test_sl013_exception_only_leak_under_an_outer_finally():
    diags = lint("""
        def run(self):
            try:
                span = self.tracer.span("endorse", txid)
                yield from self._work()
                span.close()
            finally:
                self.cleanup()
    """)
    assert [d.rule for d in diags] == ["SL013"]
    assert "exception path" in diags[0].message


def test_sl013_span_closed_only_on_one_branch():
    assert rules_fired("""
        def run(self):
            span = self.tracer.span("endorse", txid)
            if self.ok:
                span.close()
    """) == ["SL013"]


def test_sl013_discarded_span():
    diags = lint("""
        def run(self):
            self.tracer.span("endorse", txid)
            yield from self._work()
    """)
    assert [d.rule for d in diags] == ["SL013"]
    assert "discarded" in diags[0].message


def test_sl013_clean_with_context_manager():
    assert rules_fired("""
        def run(self):
            with self.tracer.span("endorse", txid):
                yield from self._work()
    """) == []


def test_sl013_clean_when_closed_in_finally():
    assert rules_fired("""
        def run(self):
            span = self.tracer.span("endorse", txid)
            try:
                yield from self._work()
            finally:
                span.close()
    """) == []


def test_sl013_clean_when_span_is_returned():
    assert rules_fired("""
        def open_span(self):
            span = self.tracer.span("endorse", txid)
            return span
    """) == []


# ----------------------------------------------------------------------
# SL016 — blocking wait while holding a slot
# ----------------------------------------------------------------------

def test_sl016_store_get_while_holding():
    assert "SL016" in rules_fired("""
        def run(self):
            slot = self.pool.request()
            try:
                yield slot
                msg = yield self.inbox.get()
            finally:
                self.pool.release(slot)
    """)


def test_sl016_bare_event_wait_while_holding():
    assert "SL016" in rules_fired("""
        def run(self):
            slot = yield from self.pool.acquire()
            try:
                yield self.batch_ready
            finally:
                self.pool.release(slot)
    """)


def test_sl016_clean_on_charged_waits():
    assert rules_fired("""
        def run(self):
            slot = self.pool.request()
            try:
                yield slot
                yield self.context.timeout(0.5)
                yield from self.pool.use(1.0)
            finally:
                self.pool.release(slot)
    """) == []


def test_sl016_reneging_on_own_request_is_allowed():
    # any_of([request, timeout]) races the grant of the held request
    # against a patience timer: a grant wait, not a hold-across-wait.
    assert rules_fired("""
        def run(self):
            request = self.pool.request()
            fired = yield self.sim.any_of([request, self.sim.timeout(2.0)])
            if request not in fired:
                self.pool.release(request)
    """) == []


def test_sl016_clean_on_claim_grant_wait_while_holding():
    # The VSCC job's shape: a worker slot held, then a CPU claim whose
    # grant wait (only when it queued) sits inside try/finally.
    assert rules_fired("""
        def run(self):
            request = self.workers.request()
            try:
                yield request
                held = self.cpu.claim()
                try:
                    if not held.triggered:
                        yield held
                    yield self.sim.timeout(1.0)
                finally:
                    self.cpu.release(held)
            finally:
                self.workers.release(request)
    """) == []


def test_sl016_other_event_wait_while_holding_a_claim():
    assert "SL016" in rules_fired("""
        def run(self):
            held = self.cpu.claim()
            try:
                if not held.triggered:
                    yield held
                yield self.batch_ready
            finally:
                self.cpu.release(held)
    """)


def test_sl016_clean_after_release():
    assert rules_fired("""
        def run(self):
            slot = self.pool.request()
            try:
                yield slot
            finally:
                self.pool.release(slot)
            msg = yield self.inbox.get()
    """) == []
