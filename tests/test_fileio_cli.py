"""File formats, round-trips, reports, and the command-line driver."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import betheqq as bq
from betheqq import fileio
from betheqq.cli import main
from fixhelp import a1_standard, a2_rational, b2_rational, exact_solved_fixtures, g2_rational

F = bq.ExactField()
ROOT = Path(__file__).resolve().parent.parent


def _fresh_python(code: str, *args: str) -> str:
    """The last stdout line of ``code`` run by a new interpreter on the source tree."""
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return run.stdout.splitlines()[-1]


class TestScalarLiterals:
    def test_exact_roundtrip(self):
        for lit in ["3", "-1/2", "1.25e-3", "0"]:
            x = F(lit)
            assert F(fileio.scalar_to_doc(F, x)) == x

    def test_numeric_roundtrip_full_precision(self):
        N = bq.NumericField(256)
        vals = [N("1/7"), N.ctx.mpf(2) ** Q(1, 2) / 3, N([Q(1, 3), "-2.5"])]
        for x in vals:
            back = N(fileio.scalar_to_doc(N, x))
            assert abs(back - x) <= N.ctx.mpf(2) ** -250 * max(1, abs(x))

    def test_exact_rejects_complex(self):
        with pytest.raises(bq.ParseError):
            F([1, 2])

    def test_bad_literals(self):
        with pytest.raises(bq.ParseError):
            F("3/0")
        with pytest.raises(bq.ParseError):
            bq.NumericField(64)("spam")


class TestDocumentRoundTrips:
    def test_instance(self):
        inst, _, _ = a2_rational()
        doc = fileio.instance_to_doc(inst)
        back = fileio.instance_from_doc(doc)
        assert fileio.instance_to_doc(back) == doc
        assert back.twist.zeta == inst.twist.zeta
        assert back.points == inst.points

    def test_instance_with_extra(self):
        inst, _, sol = b2_rational()
        folded, fsol = bq.fold(inst, sol)
        doc = fileio.instance_to_doc(folded)
        back = fileio.instance_from_doc(doc)
        assert fileio.instance_to_doc(back) == doc
        assert bq.residuals_vanish(back, fsol)

    def test_solution_and_roots(self):
        inst, roots, sol = a2_rational()
        sdoc = fileio.solution_to_doc(F, sol)
        back = fileio.solution_from_doc(F, sdoc)
        assert all(a.coeffs == b.coeffs for a, b in zip(back.q_plus, sol.q_plus))
        rdoc = fileio.roots_to_doc(F, roots)
        rback = fileio.roots_from_doc(F, rdoc)
        assert rback.roots == roots.canonical(F).roots

    def test_digest_stable(self):
        inst, _, _ = a1_standard()
        assert fileio.instance_digest(inst) == fileio.instance_digest(inst)
        other, _, _ = a2_rational()
        assert fileio.instance_digest(inst) != fileio.instance_digest(other)
        # eight lowercase hex digits, the same in another interpreter
        digest = fileio.instance_digest(inst)
        assert re.fullmatch(r"[0-9a-f]{8}", digest)
        code = "from fixhelp import a1_standard; from betheqq import fileio; " \
               "print(fileio.instance_digest(a1_standard()[0]))"
        assert _fresh_python(code) == digest

    def test_tolerances(self):
        # a numeric document's tolerance literals are parsed at its precision;
        # an exact one ignores them
        doc = fileio.instance_to_doc(a1_standard()[0])
        doc.update(backend="numeric", precision_bits=200, tolerances={"tau": "1e-30", "tau_root": "1e-12"})
        field = fileio.instance_from_doc(doc).field
        expected = bq.NumericField(200, tau="1e-30", tau_root="1e-12")
        assert (field.precision, field.tau, field.tau_root) == (200, expected.tau, expected.tau_root)
        assert isinstance(fileio.instance_from_doc({**doc, "backend": "exact"}).field, bq.ExactField)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def a1_files(tmp_path):
    inst, roots, sol = a1_standard()
    ipath = _write(tmp_path, "a1.instance.json", fileio.instance_to_doc(inst))
    spath = _write(tmp_path, "a1.solution.json", fileio.solution_to_doc(F, sol))
    return ipath, spath, inst, sol, tmp_path


class TestCliVerify:
    def test_golden_passes(self, a1_files, capsys):
        ipath, spath, *_ = a1_files
        assert main(["verify", ipath, spath]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert any(c["name"] == "qq_residual_1" for c in report["checks"])

    def test_corrupted_solution_fails(self, a1_files, tmp_path, capsys):
        ipath, _, inst, sol, _ = a1_files
        bad = bq.QQSolution.make(sol.q_plus, [sol.q_minus[0] + bq.Poly.const(F, 1)])
        bpath = _write(tmp_path, "bad.solution.json", fileio.solution_to_doc(F, bad))
        assert main(["verify", ipath, bpath]) == 1
        report = json.loads(capsys.readouterr().out)
        failing = [c["name"] for c in report["checks"] if c["pass"] is False]
        assert "qq_residual_1" in failing

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["verify", str(path), str(path)]) == 2

    def test_missing_key(self, tmp_path):
        path = _write(tmp_path, "empty.json", {"cartan": {"family": "A", "rank": 1}})
        assert main(["verify", path, path]) == 2

    def test_batch(self, tmp_path, capsys):
        for k, builder in enumerate((a1_standard, a2_rational)):
            inst, _, sol = builder()
            _write(tmp_path, f"c{k}.instance.json", fileio.instance_to_doc(inst))
            _write(tmp_path, f"c{k}.solution.json", fileio.solution_to_doc(F, sol))
        assert main(["verify", str(tmp_path / "*.instance.json"), "--batch"]) == 0

    def test_batch_isolates_a_malformed_file(self, tmp_path, capsys):
        for k, builder in enumerate((a1_standard, None, a2_rational)):
            if builder is None:
                (tmp_path / f"c{k}.instance.json").write_text("{not json")
                continue
            inst, _, sol = builder()
            _write(tmp_path, f"c{k}.instance.json", fileio.instance_to_doc(inst))
            _write(tmp_path, f"c{k}.solution.json", fileio.solution_to_doc(F, sol))
        assert main(["verify", str(tmp_path / "*.instance.json"), "--batch"]) == 2
        captured = capsys.readouterr()
        decoder, text, reports = json.JSONDecoder(), captured.out.strip(), []
        while text:
            doc, end = decoder.raw_decode(text)
            reports.append(doc)
            text = text[end:].strip()
        assert [r["pass"] for r in reports] == [True, True]
        (line,) = captured.err.strip().splitlines()
        assert "c1.instance.json" in line and line.count("input error") == 1


#: --tol values of the grid per precision: the field's default tau, one
#: below it, then up to 0.9
GRID_TOLS = {precision: (None, tight, "1e-3", "0.1", "0.5", "0.9")
             for precision, tight in ((53, "1e-12"), (256, "1e-50"), (512, "1e-100"))}


class TestCliVerifyToleranceGrid:
    """Every command over the documented tau range (0, 1): a residual is a
    value judged by tau, a pole a distance judged by tau_root, structure
    (pivots, zero tests, degrees) is decided by the precision alone, and no
    root check loses a root to a loose tau."""

    @staticmethod
    def _files(tmp_path, q_minus_shift=0):
        # each exact fixture, its q-_i moved by q_minus_shift ||q-_i|| in the
        # constant term, with its roots and the argv of each command it admits
        out = []
        for k, (inst, roots, sol) in enumerate(exact_solved_fixtures()):
            q_minus = [p + bq.Poly.const(F, q_minus_shift * p.norm()) for p in sol.q_minus]
            moved = bq.QQSolution.make(sol.q_plus, q_minus)
            ipath = _write(tmp_path, f"f{k}.instance.json", fileio.instance_to_doc(inst))
            spath = _write(tmp_path, f"f{k}.solution.json", fileio.solution_to_doc(F, moved))
            rpath = _write(tmp_path, f"f{k}.roots.json", fileio.roots_to_doc(F, roots))
            word = ",".join(map(str, bq.w0_reduced_word(inst.ctype).letters))
            commands = [["verify", ipath, spath], ["solve", ipath, rpath], ["chain", ipath, spath, "--word", word]]
            commands.append(["diagonalize", ipath, spath, "--word", word] if inst.ctype.family == "A"
                            else ["fold", ipath, spath])
            out.append((commands, roots.degrees()))
        return out

    @staticmethod
    def _run(argv, precision, tol):
        argv = argv + ["--backend", "numeric", "--precision", str(precision)]
        try:
            return main(argv + ([] if tol is None else ["--tol", tol]))
        except Exception as exc:  # a traceback is a failure too
            return repr(exc)

    @pytest.mark.parametrize("precision", [53, 256, 512])
    def test_true_solutions_pass_at_every_tol(self, precision, tmp_path, capsys, monkeypatch):
        # verify and solve read the exact fixture's root counts in their root
        # checks (before, chop trimmed the monic G2 q+ = z + 14/5 to a
        # constant at tau 0.5); chain, diagonalize and fold read none
        import betheqq.cli

        seen, real = [], betheqq.cli.verify_bethe
        monkeypatch.setattr(betheqq.cli, "verify_bethe", lambda inst, rts: seen.append(rts.degrees()) or real(inst, rts))
        failed = []
        for commands, degrees in self._files(tmp_path):
            for argv in commands:
                reads_roots = [degrees] * (argv[0] in ("verify", "solve"))
                for tol in GRID_TOLS[precision]:
                    seen.clear()
                    code = self._run(argv, precision, tol)
                    report = json.loads(capsys.readouterr().out or "{}")
                    if code != 0 or report.get("pass") is not True or seen != reads_roots:
                        failing = [c["name"] for c in report.get("checks", []) if not c["pass"]]
                        failed.append((argv[:2], tol, code, seen, failing))
        assert failed == []

    @pytest.mark.parametrize("precision", [53, 256, 512])
    def test_perturbed_q_minus_fails_at_tight_tol(self, precision, tmp_path, capsys):
        # the negative control: q-_i moved by 1e-2 of its norm fails every tau <= 1e-3
        for (verify, *_), _ in self._files(tmp_path, Q(1, 100)):
            for tol in (None, "1e-3"):
                assert self._run(verify, precision, tol) == 1, (verify, tol)
                failing = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"] if not c["pass"]]
                assert any(name.startswith("qq_residual_") for name in failing)

    @pytest.mark.parametrize("tol", ["0.5", "0.9"])
    def test_g2_q_plus_keeps_its_degree(self, tol):
        # q+ = z + 14/5 and z + 84/5: at tau >= 1/(84/5) the former chop in
        # roots made them constants, and the root checks read no roots
        inst, _, sol = g2_rational()
        doc = {**fileio.instance_to_doc(inst), "backend": "numeric", "tolerances": {"tau": tol}}
        inst = fileio.instance_from_doc(doc)
        sol = fileio.solution_from_doc(inst.field, fileio.solution_to_doc(F, sol))
        assert [len(bq.roots(p)) for p in sol.q_plus] == [1, 1]
        assert sorted(bq.regularity_residues(inst, sol)) == [(1, 1), (2, 1)]
        assert bq.check_nondegenerate(inst, sol.q_plus).ok


class TestCliSolve:
    def test_partition_solve(self, tmp_path, capsys):
        N = bq.NumericField(256)
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(1, (1,)), (2, (1,))], [Q(3, 4)])
        ipath = _write(tmp_path, "i.json", fileio.instance_to_doc(inst))
        ppath = _write(tmp_path, "p.json", {"partition": [["2"]]})
        out = tmp_path / "sol.json"
        code = main(["solve", ipath, ppath, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["pass"] is True
        # iteration log goes to stderr as JSON lines
        assert captured.err.strip()
        json.loads(captured.err.strip().splitlines()[0])
        sol = fileio.solution_from_doc(N, json.loads(out.read_text()))
        assert bq.residuals_vanish(inst, sol)

    def test_roots_solve(self, tmp_path, capsys):
        N = bq.NumericField(256)
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(0, (1,))], [Q(1, 2)])
        ipath = _write(tmp_path, "i.json", fileio.instance_to_doc(inst))
        rpath = _write(tmp_path, "r.json", {"roots": [["-0.9"]]})
        assert main(["solve", ipath, rpath]) == 0
        capsys.readouterr()

    def test_tol_sets_the_field_tau(self, tmp_path, capsys):
        # --tol sets the tau that every check judges at: a solution whose
        # Bethe residual is about 1e-30 passes at 1e-20 and fails at the
        # default tau of 256 bits (about 7e-49)
        N = bq.NumericField(256)
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N,
                                  [(0, (1, 0)), (Q(1, 2), (1, 0)), (3, (0, 1))], [Q(2, 3), Q(1, 5)])
        ipath = _write(tmp_path, "i.json", fileio.instance_to_doc(inst))
        ppath = _write(tmp_path, "p.json", {"partition": [["0", "1/2"], ["3"]]})
        assert main(["solve", ipath, ppath, "--tol", "1e-20"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [["0", "1/2"], ["3"]]))
        off = roots.replace_flat([w + N("1e-30") * (n == 0) for n, w in enumerate(roots.flat())])
        assert N("1e-31") < bq.verify_bethe(inst, off).max_residual < N("1e-29")
        loose = bq.QQInstance.make(inst.ctype, bq.NumericField(256, tau=N("1e-20")), inst.points, inst.twist.zeta)
        spath = _write(tmp_path, "s.json", fileio.solution_to_doc(N, bq.roots_to_solution(loose, off)))
        for argv, code in ((["--tol", "1e-20"], 0), ([], 1)):
            assert main(["verify", ipath, spath, *argv]) == code
            checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
            assert checks["bethe_residuals"]["pass"] is (code == 0)
            assert N("1e-31") < N(checks["bethe_residuals"]["residual"]) < N("1e-29")

    def test_solver_collision_exits_3(self, tmp_path, capsys, monkeypatch):
        # a PoleCollision met while tracking is a solver failure, not an input error
        import betheqq.bethe

        def colliding(*args, **kwargs):
            raise bq.PoleCollision("vanishing denominator")

        monkeypatch.setattr(betheqq.bethe, "_newton", colliding)
        N = bq.NumericField(256)
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(1, (1,)), (2, (1,))], [Q(3, 4)])
        ipath = _write(tmp_path, "i.json", fileio.instance_to_doc(inst))
        ppath = _write(tmp_path, "p.json", {"partition": [["2"]]})
        assert main(["solve", ipath, ppath]) == 3
        assert "solver failed" in capsys.readouterr().err

    def test_points_closer_than_tau_root_exit_2(self, tmp_path, capsys):
        # points 0 and 1e-30 at 256 bits are one point for the partition
        # check, so the instance is refused when it is read
        doc = {"backend": "numeric", "precision_bits": 256, "cartan": {"family": "A", "rank": 1},
               "points": [{"z": "0", "weights": [1]}, {"z": "1e-30", "weights": [1]}], "twist": ["1/2"]}
        ipath = _write(tmp_path, "i.json", doc)
        ppath = _write(tmp_path, "p.json", {"partition": [["1e-30"]]})
        assert main(["solve", ipath, ppath]) == 2
        assert "input error" in capsys.readouterr().err

    def test_bad_partition_is_input_error_or_checkfail(self, tmp_path, capsys):
        N = bq.NumericField(256)
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(1, (1,)), (2, (1,))], [Q(3, 4)])
        ipath = _write(tmp_path, "i.json", fileio.instance_to_doc(inst))
        ppath = _write(tmp_path, "p.json", {"partition": [["7"]]})
        assert main(["solve", ipath, ppath]) in (1, 2, 3)
        capsys.readouterr()


class TestCliChainFoldDiag:
    def test_chain(self, a1_files, capsys):
        ipath, spath, *_ = a1_files
        assert main(["chain", ipath, spath, "--word", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        trace = report["artifacts"]["trace"]
        assert trace["fully_generic"] and "fully_composable" not in trace
        assert "composable" not in trace["steps"][0]
        assert trace["steps"][0]["mu"]["num"] and trace["steps"][0]["mu"]["den"]

    def test_chain_broken_reports_partial_trace(self, tmp_path, capsys, monkeypatch):
        # stdout stays one JSON document: the partial trace is an artifact
        import betheqq.backlund

        inst, _, sol = a2_rational()
        ipath = _write(tmp_path, "i.json", fileio.instance_to_doc(inst))
        spath = _write(tmp_path, "s.json", fileio.solution_to_doc(F, sol))
        calls, real = [], betheqq.backlund._complete_color

        def flaky(cinst, q_plus, i, shift=None):
            calls.append(i)
            if len(calls) >= 3:
                raise bq.InconsistentSystem(i, "forced")
            return real(cinst, q_plus, i, shift=shift)

        monkeypatch.setattr(betheqq.backlund, "_complete_color", flaky)
        assert main(["chain", ipath, spath, "--word", "1,2,1"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert any(c["name"].startswith("chain_step_") and c["pass"] is False for c in report["checks"])
        assert "steps" in report["artifacts"]["trace"]

    @pytest.mark.parametrize("precision", ["256", "64"])
    @pytest.mark.parametrize("build, word", [
        pytest.param(a2_rational, "1,2,1", id="A2"),
        pytest.param(b2_rational, "1,2,1,2", id="B2"),
        pytest.param(g2_rational, "1,2,1,2,1,2", id="G2"),
    ])
    def test_numeric_chain_agrees_with_exact(self, build, word, precision, tmp_path, capsys):
        # read numerically, each chain passes and ends on the exact run's q+-
        # within tau, although the G2 chain completes a q-_1 whose
        # coefficients are far below 1
        inst, _, sol = build()
        ipath = _write(tmp_path, "i.json", fileio.instance_to_doc(inst))
        spath = _write(tmp_path, "s.json", fileio.solution_to_doc(F, sol))
        N = bq.NumericField(int(precision))
        finals = []
        for extra in ([], ["--backend", "numeric", "--precision", precision]):
            assert main(["chain", ipath, spath, "--word", word] + extra) == 0
            doc = json.loads(capsys.readouterr().out)["artifacts"]["trace"]["steps"][-1]["solution"]
            finals.append(fileio.solution_from_doc(N, doc))
        exact, numeric = finals
        for pe, pn in zip(exact.q_plus + exact.q_minus, numeric.q_plus + numeric.q_minus):
            assert pn.degree() == pe.degree()
            assert (pn - pe).norm() <= N.tau * pe.norm()

    def test_admissible_pass_and_fail(self, tmp_path, capsys):
        datum = {"cartan": {"family": "A", "rank": 1}, "d": [1], "N": [1]}
        path = _write(tmp_path, "datum.json", datum)
        assert main(["admissible", path, "--word", "1"]) == 0
        capsys.readouterr()
        datum["d"] = [2]
        path2 = _write(tmp_path, "datum2.json", datum)
        assert main(["admissible", path2, "--word", "1"]) == 1
        capsys.readouterr()

    def test_datum_psi_keys_are_not_read(self, tmp_path, capsys):
        # a datum is its degrees (d, N); a "psi" list of lists once failed as unhashable
        datum = {"cartan": {"family": "A", "rank": 1}, "d": [1], "N": [1], "psi": [[1]]}
        assert main(["admissible", _write(tmp_path, "datum.json", datum), "--word", "1"]) == 0
        capsys.readouterr()

    def test_admissible_from_instance(self, a1_files, capsys):
        ipath, *_ = a1_files
        assert main(["admissible", ipath, "--word", "1", "--degrees", "1"]) == 0
        capsys.readouterr()

    def test_fold(self, tmp_path, capsys):
        inst, _, sol = b2_rational()
        ipath = _write(tmp_path, "b2.json", fileio.instance_to_doc(inst))
        spath = _write(tmp_path, "b2sol.json", fileio.solution_to_doc(F, sol))
        out = tmp_path / "folded.json"
        assert main(["fold", ipath, spath, "--out", str(out)]) == 0
        capsys.readouterr()
        fi = fileio.instance_from_doc(json.loads((tmp_path / "folded.instance.json").read_text()))
        fs = fileio.solution_from_doc(fi.field,
                                      json.loads((tmp_path / "folded.solution.json").read_text()))
        assert fi.ctype.family == "A"
        assert bq.residuals_vanish(fi, fs)

    def test_fold_of_a_zero_short_pair_fails(self, tmp_path, capsys):
        # q-_2 = [] fails equation 2, as verify finds; fold exits 1 instead of
        # writing a folded instance whose Lambda~_2 is the zero polynomial
        inst, _, sol = b2_rational()
        doc = fileio.solution_to_doc(F, sol)
        doc["q_minus"][1] = []
        argv = [_write(tmp_path, "b2.json", fileio.instance_to_doc(inst)),
                _write(tmp_path, "b2sol.json", doc)]
        assert main(["verify", *argv]) == 1
        capsys.readouterr()
        assert main(["fold", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("check failed: ") and "q-_2 vanishes" in line

    def test_diagonalize(self, tmp_path, capsys):
        inst, _, sol = a2_rational()
        ipath = _write(tmp_path, "a2.json", fileio.instance_to_doc(inst))
        spath = _write(tmp_path, "a2sol.json", fileio.solution_to_doc(F, sol))
        mout = tmp_path / "v.json"
        assert main(["diagonalize", ipath, spath, "--word", "1,2,1", "--out", str(mout)]) == 0
        capsys.readouterr()
        mdoc = json.loads(mout.read_text())
        assert len(mdoc["entries"]) == 3

    def test_factorization_failure_is_a_failed_check(self, tmp_path, capsys, monkeypatch):
        # a gauge outside the open Bruhat cell exits 1 with one stderr line,
        # as a failed Backlund step does, not 2 as if the input were malformed
        import betheqq.cli

        def outside(*args):
            raise bq.FactorizationFailed("matrix is not in the open Bruhat cell")

        monkeypatch.setattr(betheqq.cli, "diagonalize_type_a", outside)
        inst, _, sol = a2_rational()
        ipath = _write(tmp_path, "a2.json", fileio.instance_to_doc(inst))
        spath = _write(tmp_path, "a2sol.json", fileio.solution_to_doc(F, sol))
        assert main(["diagonalize", ipath, spath, "--word", "1,2,1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["check failed: matrix is not in the open Bruhat cell"]

    def test_numeric_reports_as_before(self, tmp_path, capsys):
        # four numeric A2 files along both words, wall time dropped: the
        # residuals sit at the rounding floor, so any change of a rounding on
        # the diagonalize path moves this digest
        N = bq.NumericField(256)
        digest = hashlib.sha256()
        for k, zeta in enumerate([(Q(3, 2), Q(5, 7)), (Q(-2, 5), Q(7, 3)), (Q(2, 3), Q(-9, 11)),
                                  (Q(13, 6), Q(4, 9))]):
            inst, _, sol = a2_rational(N, zeta)
            ipath = _write(tmp_path, f"a2-{k}.json", fileio.instance_to_doc(inst))
            spath = _write(tmp_path, f"a2sol-{k}.json", fileio.solution_to_doc(N, sol))
            for word in ("1,2,1", "2,1,2"):
                assert main(["diagonalize", ipath, spath, "--word", word]) == 0
                report = json.loads(capsys.readouterr().out)
                report.pop("wall_time_s")
                digest.update(fileio.canonical_json(report).encode())
        assert digest.hexdigest()[:16] == "442418964fab0369"

    @pytest.mark.parametrize("cmd", ["chain", "diagonalize"])
    def test_nonsolution_at_run_precision_is_a_failed_check(self, cmd, tmp_path, capsys):
        # a 256-bit solution read at 512 bits fails equation 1 there: the first
        # Backlund step is undefined, which is a failed check, not a crash
        N = bq.NumericField(256)
        inst, _, sol = a2_rational(N)
        ipath = _write(tmp_path, "a2.json", fileio.instance_to_doc(inst))
        spath = _write(tmp_path, "a2sol.json", fileio.solution_to_doc(N, sol))
        argv = [cmd, ipath, spath, "--word", "1,2,1", "--precision", "512"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        if cmd == "chain":
            report = json.loads(out)
            failed = [c for c in report["checks"] if c["pass"] is False]
            assert [c["name"] for c in failed] == ["chain_step_1"]
            assert "equation 1 does not hold" in failed[0]["residual"]
            assert report["artifacts"]["trace"]["steps"] == []
        else:
            assert out == ""
            assert err.splitlines() == [
                "check failed: chain broke at step 1: equation 1 does not hold; "
                "Backlund step undefined"]

    def test_admissible_reads_the_instance_once(self, a1_files, capsys, monkeypatch):
        import betheqq.cli

        argv = ["admissible", a1_files[0], "--word", "1", "--degrees", "1"]
        assert main(argv) == 0
        before = json.loads(capsys.readouterr().out)
        reads, real = [], betheqq.cli._load_json
        monkeypatch.setattr(betheqq.cli, "_load_json", lambda path: reads.append(path) or real(path))
        assert main(argv) == 0
        after = json.loads(capsys.readouterr().out)
        assert reads == [a1_files[0]]
        for doc in (before, after):
            doc.pop("wall_time_s")
        assert after == before


class TestCliInputErrors:
    @pytest.mark.parametrize("argv", [
        ["chain", "{a2}", "{a2sol}", "--word", "1,5"],
        ["chain", "{a2}", "{a2sol}", "--word", "1,1"],
        ["diagonalize", "{a2}", "{a2sol}", "--word", "1,2"],
        ["admissible", "{a2}", "--word", "1", "--degrees", "1"],
        ["admissible", "{no_cartan}", "--word", "1"],
        ["admissible", "{short_d}", "--word", "1,2"],
        ["admissible", "{fraction_d}", "--word", "1,2"],
    ], ids=["letter-out-of-range", "word-not-reduced", "word-not-longest", "degrees-too-short",
            "datum-without-cartan", "datum-d-too-short", "datum-d-fraction"])
    def test_bad_arguments_exit_2(self, argv, tmp_path, capsys):
        # a bad argument is an input error: exit 2 and one stderr line, no report
        inst, _, sol = a2_rational()
        docs = {"a2": fileio.instance_to_doc(inst), "a2sol": fileio.solution_to_doc(F, sol),
                "no_cartan": {"d": [1], "N": [1]},
                "short_d": {"cartan": {"family": "A", "rank": 2}, "d": [1], "N": [1, 1]},
                "fraction_d": {"cartan": {"family": "A", "rank": 2}, "d": [1.7, 1], "N": [1, 1]}}
        paths = {name: _write(tmp_path, name + ".json", doc) for name, doc in docs.items()}
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("input error: ")

    @pytest.mark.parametrize("family", [1, ["A"]], ids=["number", "array"])
    @pytest.mark.parametrize("kind", ["instance", "datum"])
    def test_family_not_a_string_exits_2(self, kind, family, tmp_path, capsys):
        # refused like an unknown family letter, not a traceback
        inst, _, sol = a2_rational()
        if kind == "instance":
            doc = fileio.instance_to_doc(inst)
            doc["cartan"]["family"] = family
            argv = ["verify", _write(tmp_path, "i.json", doc),
                    _write(tmp_path, "s.json", fileio.solution_to_doc(F, sol))]
        else:
            doc = {"cartan": {"family": family, "rank": 1}, "d": [1], "N": [1]}
            argv = ["admissible", _write(tmp_path, "d.json", doc), "--word", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == f"input error: unknown family {family!r}"

    def test_zero_pairing_target_exits_2(self, tmp_path, capsys):
        # xi_2 = 0: no scaled continuation path reaches the target twist
        N = bq.NumericField(256)
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N, [(0, (1, 0))], [2, 1])
        assert inst.xi(2) == 0
        ipath = _write(tmp_path, "i.json", fileio.instance_to_doc(inst))
        ppath = _write(tmp_path, "p.json", {"partition": [["0"], []]})
        assert main(["solve", ipath, ppath]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("input error: ") and "pair nonzero" in line

    @pytest.mark.parametrize("kind", ["solution", "roots", "partition"])
    def test_complex_literal_needs_two_entries(self, kind, tmp_path, capsys):
        N = bq.NumericField(256)
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(1, (1,)), (2, (1,))], [Q(3, 4)])
        ipath = _write(tmp_path, "i.json", fileio.instance_to_doc(inst))
        bad = ["2", "0", "0"]
        docs = {"solution": {"q_plus": [[bad, "1"]], "q_minus": [["1"]]},
                "roots": {"roots": [[bad]]}, "partition": {"partition": [[bad]]}}
        path = _write(tmp_path, kind + ".json", docs[kind])
        argv = ["verify", ipath, path] if kind == "solution" else ["solve", ipath, path]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("input error: ")

    @pytest.mark.parametrize("shape", ["one-color", "three-colors", "short-q-minus"])
    @pytest.mark.parametrize("cmd", ["verify", "chain", "diagonalize", "fold"])
    def test_solution_colors_must_match_exits_2(self, cmd, shape, tmp_path, capsys):
        # a rank-2 instance needs two q+ and two q- polynomials in the solution file
        inst, _, sol = b2_rational() if cmd == "fold" else a2_rational()
        qp, qm = (fileio.solution_to_doc(F, sol)[k] for k in ("q_plus", "q_minus"))
        doc = {"one-color": {"q_plus": qp[:1], "q_minus": qm[:1]},
               "three-colors": {"q_plus": qp + qp[:1], "q_minus": qm + qm[:1]},
               "short-q-minus": {"q_plus": qp, "q_minus": qm[:1]}}[shape]
        argv = [cmd, _write(tmp_path, "i.json", fileio.instance_to_doc(inst)),
                _write(tmp_path, "s.json", doc)]
        assert main(argv + (["--word", "1,2,1"] if cmd in ("chain", "diagonalize") else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("input error: ") and "one per color" in line

    @pytest.mark.parametrize("color", [1, 2])
    @pytest.mark.parametrize("cmd", ["verify", "chain", "diagonalize", "fold"])
    def test_zero_q_plus_exits_2(self, cmd, color, tmp_path, capsys):
        # a zero q+ polynomial ("[]") is refused before any check runs
        inst, _, sol = b2_rational() if cmd == "fold" else a2_rational()
        doc = fileio.solution_to_doc(F, sol)
        doc["q_plus"][color - 1] = []
        argv = [cmd, _write(tmp_path, "i.json", fileio.instance_to_doc(inst)),
                _write(tmp_path, "s.json", doc)]
        assert main(argv + (["--word", "1,2,1"] if cmd in ("chain", "diagonalize") else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("input error: ") and f"'q_plus' entry {color} is the zero polynomial" in line

    @pytest.mark.parametrize("cmd", ["verify", "chain", "admissible", "fold", "diagonalize"])
    def test_seed_is_a_solve_flag(self, cmd, tmp_path, capsys):
        # only solve draws random numbers; elsewhere --seed is an unknown flag
        inst, _, sol = b2_rational() if cmd == "fold" else a2_rational()
        ipath = _write(tmp_path, "i.json", fileio.instance_to_doc(inst))
        spath = _write(tmp_path, "s.json", fileio.solution_to_doc(F, sol))
        argv = {"admissible": [ipath, "--word", "1,2,1", "--degrees", "1,1"],
                "chain": [ipath, spath, "--word", "1,2,1"],
                "diagonalize": [ipath, spath, "--word", "1,2,1"]}.get(cmd, [ipath, spath])
        assert main([cmd, *argv]) == 0
        assert "seed" not in json.loads(capsys.readouterr().out)
        with pytest.raises(SystemExit) as err:
            main([cmd, *argv, "--seed", "5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    @pytest.mark.parametrize("bits", ["0", "10"])
    def test_precision_below_the_floor_exits_2(self, bits, tmp_path, capsys):
        # --precision 0 is a given flag, not an absent one
        ipath = _write(tmp_path, "a2.json", fileio.instance_to_doc(a2_rational()[0]))
        argv = ["admissible", ipath, "--word", "1,2,1", "--degrees", "1,1",
                "--backend", "numeric", "--precision", bits]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("input error: ") and "precision" in line

    @pytest.mark.parametrize("case", ["roots-one-color", "instance-list", "solution-list", "start-list",
                                      "tol-zero", "tol-negative", "tau-root-negative", "list-tolerances",
                                      "string-tolerances", "list-tolerances-and-tol",
                                      "string-twist", "string-lead", "string-weights", "string-partition",
                                      "string-roots", "fraction-precision", "fraction-rank", "true-rank",
                                      "inf-point", "overflow-point", "nan-point", "infinity-twist",
                                      "infinity-roots", "tol-inf", "tol-1e400", "tol-ten", "tau-true",
                                      "bool-twist", "bool-point", "bool-coefficient"])
    def test_malformed_input_exits_2(self, case, tmp_path, capsys):
        # a start file with too few colors, a document that is not a JSON
        # object, tolerances that are not an object, a tolerance that is not
        # positive (or a tau not below 1), a string where an array belongs, an
        # integer key that is not an integer, a numeric literal that is not
        # finite and a boolean where a number belongs are input errors
        N = bq.NumericField(256)
        inst, _, sol = a2_rational(N)
        doc, sdoc = fileio.instance_to_doc(inst), fileio.solution_to_doc(N, sol)
        edits = {"tau-root-negative": (doc, "tolerances", {"tau_root": "-1"}),
                 "tau-true": (doc, "tolerances", {"tau": True}),
                 "bool-twist": (doc, "twist", [True, doc["twist"][1]]),
                 "bool-point": (doc["points"][0], "z", False),
                 "bool-coefficient": (sdoc["q_plus"][0], 0, True),
                 "list-tolerances": (doc, "tolerances", ["1e-30"]),
                 "string-tolerances": (doc, "tolerances", "1e-30"),
                 "list-tolerances-and-tol": (doc, "tolerances", ["1e-30"]),
                 "string-twist": (doc, "twist", "34"), "string-lead": (doc, "lead", "12"),
                 "string-weights": (doc["points"][0], "weights", "10"),
                 "fraction-precision": (doc, "precision_bits", 100.9),
                 "fraction-rank": (doc["cartan"], "rank", 2.7), "true-rank": (doc["cartan"], "rank", True),
                 "inf-point": (doc["points"][0], "z", "inf"),
                 "overflow-point": (doc["points"][0], "z", "<1e400>"),
                 "nan-point": (doc["points"][0], "z", float("nan")),
                 "infinity-twist": (doc, "twist", [float("inf"), doc["twist"][1]])}
        if case in edits:
            target, key, value = edits[case]
            target[key] = value
        ipath = _write(tmp_path, "a2.json", doc)
        Path(ipath).write_text(Path(ipath).read_text().replace('"<1e400>"', "1e400"))  # a float overflow
        spath = _write(tmp_path, "a2sol.json", sdoc)
        start = _write(tmp_path, "start.json", {"partition": [["0"], []]})
        listed = _write(tmp_path, "list.json", [1, 2])
        argv = {"roots-one-color": ["solve", ipath, _write(tmp_path, "r.json", {"roots": [["0.1"]]})],
                "string-partition": ["solve", ipath, _write(tmp_path, "p12.json", {"partition": "12"})],
                "string-roots": ["solve", ipath, _write(tmp_path, "r12.json", {"roots": "12"})],
                "infinity-roots": ["solve", ipath,
                                   _write(tmp_path, "ri.json", {"roots": [[float("inf")], ["0.25"]]})],
                "instance-list": ["verify", listed, spath],
                "solution-list": ["verify", ipath, listed],
                "start-list": ["solve", ipath, listed],
                "tol-zero": ["solve", ipath, start, "--tol", "0"],
                "tol-negative": ["solve", ipath, start, "--tol", "-1"],
                "tol-inf": ["verify", ipath, spath, "--tol", "inf"],
                "tol-1e400": ["verify", ipath, spath, "--tol", "1e400"],
                "tol-ten": ["verify", ipath, spath, "--tol", "10"],
                "tau-root-negative": ["solve", ipath, start],
                "list-tolerances": ["verify", ipath, spath],
                "string-tolerances": ["solve", ipath, start],
                "list-tolerances-and-tol": ["verify", ipath, spath, "--tol", "1e-30"]
                }.get(case, ["verify", ipath, spath])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("input error: ")
        assert ("must be positive" in line) == case.startswith(("tol", "tau"))
        string_for_array = case.startswith("string-") and case != "string-tolerances"
        assert ("must be a JSON array" in line) == string_for_array
        assert ("must be an integer" in line) == case.endswith(("-precision", "-rank"))
        assert ("is not finite" in line) == case.startswith(("inf", "overflow", "nan"))

    def test_zero_cofactor_exits_2(self, tmp_path, capsys):
        # an empty "extra" entry is the zero polynomial, not an absent cofactor
        inst, _, sol = a2_rational()
        doc = {**fileio.instance_to_doc(inst), "extra": [[], None]}
        argv = ["verify", _write(tmp_path, "i.json", doc),
                _write(tmp_path, "s.json", fileio.solution_to_doc(F, sol))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("input error: ") and "nonzero polynomials" in line


def test_single_file_runs_load_neither_openssl_nor_logging(tmp_path):
    # the report fingerprint needs no hashlib, and only a chop warning loads logging
    N = bq.NumericField(256)
    inst, _, sol = a2_rational(N)
    ipath = _write(tmp_path, "a2.json", fileio.instance_to_doc(inst))
    spath = _write(tmp_path, "a2sol.json", fileio.solution_to_doc(N, sol))
    code = "import sys; from betheqq.cli import main; i, s = sys.argv[1:]; " \
           "codes = [main(['verify', i, s]), main(['diagonalize', i, s, '--word', '1,2,1'])]; " \
           "print(codes, sorted({'_hashlib', 'logging'} & set(sys.modules)))"
    assert _fresh_python(code, ipath, spath) == "[0, 0] []"


class TestDeterminism:
    def test_reports_stable_modulo_walltime(self, a1_files, capsys):
        ipath, spath, *_ = a1_files
        main(["verify", ipath, spath])
        r1 = json.loads(capsys.readouterr().out)
        main(["verify", ipath, spath])
        r2 = json.loads(capsys.readouterr().out)
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert fileio.canonical_json(r1) == fileio.canonical_json(r2)

    @pytest.mark.parametrize("cmd", ["verify", "solve", "chain", "admissible", "fold", "diagonalize"])
    def test_every_subcommand_stable_modulo_walltime(self, cmd, tmp_path, capsys):
        a2_inst, _, a2_sol = a2_rational()
        b2_inst, _, b2_sol = b2_rational()
        N = bq.NumericField(256)
        a1 = bq.QQInstance.make(bq.CartanType("A", 1), N, [(1, (1,)), (2, (1,))], [Q(3, 4)])
        a2 = _write(tmp_path, "a2.json", fileio.instance_to_doc(a2_inst))
        a2sol = _write(tmp_path, "a2sol.json", fileio.solution_to_doc(F, a2_sol))
        argv = {
            "verify": [a2, a2sol],
            "solve": [_write(tmp_path, "a1.json", fileio.instance_to_doc(a1)),
                      _write(tmp_path, "p.json", {"partition": [["2"]]})],
            "chain": [a2, a2sol, "--word", "1,2,1"],
            "admissible": [a2, "--word", "1,2,1", "--degrees", "1,1"],
            "fold": [_write(tmp_path, "b2.json", fileio.instance_to_doc(b2_inst)),
                     _write(tmp_path, "b2sol.json", fileio.solution_to_doc(F, b2_sol))],
            "diagonalize": [a2, a2sol, "--word", "1,2,1"],
        }[cmd]
        runs = []
        for _ in range(2):
            code = main([cmd, *argv, *(["--seed", "5"] if cmd == "solve" else [])])
            captured = capsys.readouterr()
            out, n = re.subn(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": T', captured.out)
            assert n == 1
            runs.append((code, out, captured.err))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_report_check_names_are_unique(self, tmp_path, capsys):
        # every check of a solve or verify report has its own name
        N = bq.NumericField(256)
        a2, _, a2_sol = a2_rational(N)
        ipath = _write(tmp_path, "a2.json", fileio.instance_to_doc(a2))
        a1 = _write(tmp_path, "a1.json", fileio.instance_to_doc(
            bq.QQInstance.make(bq.CartanType("A", 1), N, [(0, (1,))], [Q(1, 2)])))
        for argv in (["verify", ipath, _write(tmp_path, "a2sol.json", fileio.solution_to_doc(N, a2_sol))],
                     ["solve", ipath, _write(tmp_path, "p.json", {"partition": [["0"], []]})],
                     ["solve", a1, _write(tmp_path, "r.json", {"roots": [["-0.9"]]})]):
            assert main(argv) == 0
            names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
            assert "bethe_residuals" in names and len(names) == len(set(names)), argv

    def test_verify_out_holds_the_report(self, a1_files, capsys):
        ipath, spath, *_, tmp_path = a1_files
        out = tmp_path / "report.json"
        assert main(["verify", ipath, spath, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out.read_text())
        assert report["command"] == "verify" and report["pass"] is True and "wall_time_s" in report

    def test_chain_out_holds_the_trace(self, a1_files, capsys):
        ipath, spath, *_, tmp_path = a1_files
        out = tmp_path / "trace.json"
        assert main(["chain", ipath, spath, "--word", "1", "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "chain" and "trace" not in report["artifacts"]
        trace = json.loads(out.read_text())
        assert trace["fully_generic"] and len(trace["steps"]) == 1
