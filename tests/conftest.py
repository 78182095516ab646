"""Shared pytest plumbing: surface acceptance verdicts in the run summary,
and walk a tape's nodes and what their closures capture."""

ACCEPTANCE: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE:
            terminalreporter.write_line(line)


def tape_nodes(root):
    """Every node on root's tape (root._node and the nodes it links to,
    leaves included), each once."""
    nodes, stack, seen = [], [root._node], set()
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def captured(closure):
    """Every object a closure captures, looking into the closures, tuples
    and lists it captures in turn."""
    found, stack = [], [c.cell_contents for c in closure.__closure__ or ()]
    while stack:
        obj = stack.pop()
        found.append(obj)
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(c.cell_contents for c in obj.__closure__)
    return found
