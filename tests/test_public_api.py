"""The package's exports: README's Library block runs as written, and nothing more is exported.

The package exports what README's Library section, the CLI's commands and
the acceptance suite use; every other name is imported from its module.
"""

import ast
import io
import pathlib
import tokenize

import whlink

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
