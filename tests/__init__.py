"""Unit and acceptance tests; a package, so that its conftest module does not
clash with the one in perfbench/tests when both run in one session."""
