"""REP001 — no blocking calls inside coroutines.

The asyncio serving tier multiplexes every connection on one event
loop; a single blocking call inside an ``async def`` stalls *all* of
them.  This rule checks every coroutine in the tree.  Flagged inside
coroutine bodies:

* ``time.sleep(...)`` — use ``asyncio.sleep`` or move off-loop;
* blocking socket methods (``recv``/``recv_into``/``recvfrom``/
  ``sendall``/``accept``/``makefile``) — coroutines speak through
  ``StreamReader``/``StreamWriter``;
* the synchronous :class:`ServeClient` — a coroutine calling the
  blocking HTTP client would wedge the loop under its own server;
* builtin ``open(...)`` — file I/O belongs on the request executor;
* ``subprocess`` / ``urllib`` usage — same reason.

Nested *sync* ``def``s inside a coroutine are skipped: they are almost
always executor targets or callbacks, where blocking is the point.

Inside ``repro.serve`` modules the rule also bans importing
``http.server`` / ``socketserver`` anywhere: the thread-per-connection
server was deleted in the asyncio rewrite and must not creep back.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..base import Finding, ModuleContext, Rule, register

#: Attribute calls that block the calling thread when the receiver is a
#: socket-like object.
_BLOCKING_SOCKET_ATTRS = {
    "recv",
    "recv_into",
    "recvfrom",
    "sendall",
    "accept",
    "makefile",
}

#: Modules whose use inside a coroutine is blocking by construction.
_BLOCKING_MODULES = {"subprocess", "urllib"}

#: Importing these in ``repro.serve`` re-introduces the deleted
#: threading server.
_BANNED_SERVE_IMPORTS = {"http.server", "socketserver"}


class _CoroutineScanner(ast.NodeVisitor):
    """Scan one ``async def`` body, skipping nested sync functions."""

    def __init__(self, module: ModuleContext,
                 findings: List[Finding]) -> None:
        self.module = module
        self.findings = findings

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.module.finding("REP001", node, message))

    # -- nested scopes -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # sync helper inside a coroutine: allowed to block

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        for child in node.body:
            self.visit(child)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            if (
                isinstance(owner, ast.Name)
                and owner.id == "time"
                and func.attr == "sleep"
            ):
                self._flag(node, "time.sleep() in coroutine "
                                 "(use asyncio.sleep or run_in_executor)")
            elif (
                isinstance(owner, ast.Name)
                and owner.id in _BLOCKING_MODULES
            ):
                self._flag(node, f"{owner.id}.{func.attr}() in coroutine "
                                 "(move to the request executor)")
            elif func.attr in _BLOCKING_SOCKET_ATTRS:
                self._flag(node, f".{func.attr}() in coroutine looks like "
                                 "blocking socket I/O (use the stream "
                                 "reader/writer)")
        elif isinstance(func, ast.Name):
            if func.id == "open":
                self._flag(node, "open() in coroutine "
                                 "(file I/O belongs on the executor)")
            elif func.id == "ServeClient":
                self._flag(node, "synchronous ServeClient built inside a "
                                 "coroutine")
        self.generic_visit(node)


@register
class AsyncBlockingRule(Rule):
    __doc__ = __doc__

    id = "REP001"
    title = "blocking call inside a coroutine (event-loop stall)"

    def check_module(self, module: ModuleContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                scanner = _CoroutineScanner(module, findings)
                for child in node.body:
                    scanner.visit(child)
            elif module.in_serve_package and isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _BANNED_SERVE_IMPORTS:
                        findings.append(module.finding(
                            "REP001", node,
                            f"import of {alias.name} — the threading "
                            "server is gone; serve on asyncio",
                        ))
            elif module.in_serve_package and isinstance(node, ast.ImportFrom):
                if node.module in _BANNED_SERVE_IMPORTS:
                    findings.append(module.finding(
                        "REP001", node,
                        f"import from {node.module} — the threading "
                        "server is gone; serve on asyncio",
                    ))
        return iter(findings)
