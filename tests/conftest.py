"""Shared pytest plumbing for the suite.

Acceptance tests report one PASS/FAIL line each through record_criterion();
the collected lines are printed in a dedicated terminal section at the end
of the run so the verdict on every headline property is visible at a glance.
"""
_criterion_lines: list[str] = []


def stretch_link(world, frm: int, to: int) -> None:
    """Make the directed link ``frm -> to`` 100 times slower on a net without
    a bandwidth cap: each copy on it takes (hops * base_delay + jitter *
    draw) * 100, drawing from the world's RNG where the default delay would,
    and only when there is jitter. Other links keep the default. The policy
    holds no reference to the world, which keeps the world free of cycles."""
    base = world.hops[frm][to] * world.net.base_delay
    jitter, draw = world.net.jitter, world.rng.random

    def policy(src, dst, msg):
        if src != frm or dst != to:
            return None
        delay = base
        if jitter:
            delay += jitter * draw()
        return delay * 100.0

    world.delay_policy = policy


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    """Record one acceptance-criterion outcome for the end-of-run summary."""
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f" | {detail}"
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)
