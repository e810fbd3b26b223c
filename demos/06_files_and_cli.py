"""The file formats and the command-line driver, end to end.

Instances, solutions, roots, partitions, traces, and matrices all travel as
JSON with scalars as exact decimal/rational strings.  The `betheqq` command
wires the library into batch workflows with a fixed exit-code contract:
0 pass, 1 check failure, 2 input error, 3 solver non-convergence.
"""

import json
import pathlib
import shutil
import tempfile
from fractions import Fraction as Q

import betheqq as bq
from betheqq import fileio
from betheqq.cli import main

work = pathlib.Path(tempfile.mkdtemp(prefix="betheqq-demo-"))
print("working under", work)

F = bq.ExactField()
inst = bq.QQInstance.make(bq.CartanType("A", 1), F, points=[(0, (1,))], twist=[Q(1, 2)])
sol = bq.complete_minus(inst, [bq.Poly.make(F, [1, 1])])

ipath = work / "a1.instance.json"
spath = work / "a1.solution.json"
ipath.write_text(json.dumps(fileio.instance_to_doc(inst), indent=2))
spath.write_text(json.dumps(fileio.solution_to_doc(F, sol), indent=2))
print("\ninstance document:")
print(ipath.read_text())

print("betheqq verify ->", main(["verify", str(ipath), str(spath)]))

bad = bq.QQSolution.make(sol.q_plus, [sol.q_minus[0] + bq.Poly.const(F, 1)])
bpath = work / "bad.solution.json"
bpath.write_text(json.dumps(fileio.solution_to_doc(F, bad)))
print("\nverify on a corrupted q- (expect exit 1) ->",
      main(["verify", str(ipath), str(bpath)]))

# numeric solve driven entirely through files
ninst = bq.QQInstance.make(bq.CartanType("A", 1), bq.NumericField(256),
                           points=[(1, (1,)), (2, (1,))], twist=["3/4"])
n_ipath = work / "n.instance.json"
n_ipath.write_text(json.dumps(fileio.instance_to_doc(ninst)))
(work / "n.partition.json").write_text(json.dumps({"partition": [["2"]]}))
print("\nbetheqq solve (continuation from the infinite system) ->",
      main(["solve", str(n_ipath), str(work / 'n.partition.json'),
            "--out", str(work / "n.solution.json")]))
print("\nsolution file written:", (work / "n.solution.json").exists())

print("\nchain along the word '1' ->",
      main(["chain", str(ipath), str(spath), "--word", "1"]))

shutil.rmtree(work)  # the demo leaves no files behind
