"""The package's exports: README's Library block runs as written, and nothing more is exported.

The package exports what README's Library section, the CLI's commands and
the acceptance suite use; every other name is imported from its module.
The exported names check their arguments, and the helpers behind them take
what their callers checked, as their docstrings state.
"""

import ast
import io
import pathlib
import tokenize

import whlink
from whlink import cli, cover, divisor, primes, realization, smale, verify

README = pathlib.Path(__file__).parent.parent / "README.md"

PUBLIC = [
    "ConsistencyError",
    "CoprimalityError",
    "CoverLink",
    "CrossCheckError",
    "FamilyDomainError",
    "FamilyMember",
    "InputError",
    "InvalidIndexError",
    "LinkInvariants",
    "NotAPolynomialError",
    "NotASmoothCurveError",
    "OrlikDivisor",
    "RealizationCertificate",
    "SmaleManifold",
    "TwoPathMismatchError",
    "VerificationReport",
    "WeightSystem",
    "WhlinkError",
    "__version__",
    "build_cover",
    "diagnose_cover",
    "family_member",
    "link_invariants",
    "primes_4l_minus_1",
    "realize",
    "run_verification",
    "search_weight_systems",
    "smale_decompositions",
]


def library_block() -> str:
    """The first ```python block after README's "## Library" heading."""
    text = README.read_text().split("\n## Library\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_gives_the_values_its_comments_state():
    # each bare expression is evaluated and compared with its comment's value,
    # the part before " = " (so "729 = 3^(2*3)" states 729)
    code = library_block()
    lines = io.StringIO(code).readline
    comments = {
        tok.start[0]: tok.string.removeprefix("# ").split(" = ")[0]
        for tok in tokenize.generate_tokens(lines)
        if tok.type == tokenize.COMMENT
    }
    namespace, shown = {}, []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(comments[stmt.lineno]), ast.unparse(stmt)
            shown.append(value)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert shown == [(1, 2), 729, (7, "M_2 # M_3")]


def test_the_package_exports_exactly_the_public_names():
    assert sorted(whlink.__all__) == PUBLIC
    assert all(hasattr(whlink, name) for name in PUBLIC)


def test_every_caller_meets_the_helper_preconditions(monkeypatch, capsys):
    # cover_weights, cover_divisor, lam, is_prime and factorize check none of
    # their arguments.  Each call is recorded where its caller looks it up,
    # over README's commands, realize, smale_decompositions and a d <= 16
    # sweep, and must carry what the helper's docstring asks for
    calls = {}

    def record(module, name):
        helper = getattr(module, name)

        def recording(*args):
            calls.setdefault(name, []).append(args)
            return helper(*args)

        monkeypatch.setattr(module, name, recording)

    for module in (cover, verify):
        record(module, "cover_weights")
        record(module, "cover_divisor")
    record(divisor, "lam")
    record(primes, "is_prime")
    record(realization, "is_prime")
    record(smale, "factorize")
    commands = [
        ["genus", "--weights", "1,2,3", "--degree", "7"],
        ["link", "--weights", "15,10,6", "--degree", "30"],
        ["cover", "--weights", "1,1,1", "--degree", "3", "-k", "2"],
        ["cover", "--weights", "1,1,1", "--degree", "3", "-k", "2", "--skip-direct-path"],
        ["realize", "8"],
        ["realize", "8", "--prime", "7"],
        ["smale-enum", "64"],
        ["primes", "--limit", "100"],
        ["search", "--genus", "1", "--max-degree", "12"],
        ["verify", "--max-degree", "12"],
    ]
    codes = {cli.main([*argv, "--format", fmt]) for argv in commands for fmt in ("json", "text")}
    capsys.readouterr()
    for k in range(2, 41):
        whlink.realize(k)
    for k in (1, 64, 1031 * 1033, 1000006000009, 85319556368507):
        whlink.smale_decompositions(k)
    report = verify.run_verification(16, 12)

    def exact(n, minimum):
        return type(n) is int and n >= minimum

    assert sorted(calls) == ["cover_divisor", "cover_weights", "factorize", "is_prime", "lam"]
    assert all(len(base.weights) == 3 and exact(k, 2) for base, k in calls["cover_weights"])
    assert all(exact(k, 2) for _div, k in calls["cover_divisor"])
    assert all(exact(j, 1) for (j,) in calls["lam"])
    assert all(type(n) is int for (n,) in calls["is_prime"])
    assert all(exact(k, 1) for (k,) in calls["factorize"])
    assert codes == {0} and report.ok
